"""weaklab: exact induction over finite statement lattices.

Core objects: StateSpace, Predicate, Vocabulary, Statement, Language
(lattice); VTask and the child/parent relation (tasks); proxy-driven
induction and exact probabilities (induction); brute-force verification
(oracle); the binary-arithmetic experiment harness (arith); and a small
task-definition language (specdsl).
"""

from .errors import (
    CapacityError,
    DegenerateTaskError,
    FixtureError,
    IncompatibleLanguageError,
    InvalidTaskError,
    MembershipError,
    NoDecisionError,
    NoModelError,
    TaskPreconditionError,
    VocabularyError,
    WeaklabError,
)
from .induction import (
    INVERSE_DESCRIPTION_LENGTH,
    WEAKNESS,
    ExclusiveFamily,
    exclusive_family_sum,
    generalisation_probability,
    induce,
    mutually_exclusive,
    prior,
)
from .lattice import (
    EXPLICIT,
    DERIVED,
    Language,
    Predicate,
    StateSpace,
    Statement,
    Vocabulary,
)
from .tasks import Decision, VTask, attempt_task, is_child, make_task

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DegenerateTaskError",
    "Decision",
    "DERIVED",
    "EXPLICIT",
    "ExclusiveFamily",
    "FixtureError",
    "IncompatibleLanguageError",
    "INVERSE_DESCRIPTION_LENGTH",
    "InvalidTaskError",
    "Language",
    "MembershipError",
    "NoDecisionError",
    "NoModelError",
    "Predicate",
    "StateSpace",
    "Statement",
    "TaskPreconditionError",
    "VTask",
    "Vocabulary",
    "VocabularyError",
    "WEAKNESS",
    "WeaklabError",
    "attempt_task",
    "exclusive_family_sum",
    "generalisation_probability",
    "induce",
    "is_child",
    "make_task",
    "mutually_exclusive",
    "prior",
    "__version__",
]
