"""Tasks over a statement lattice: situations, decisions, models.

A task pairs a set of situations with the subset of their reachable
decisions that count as correct.  A model is a statement whose extension
picks out exactly the correct decisions among the reachable ones.

A task holds its reachable decisions Z_S and its correct decisions D as
bitmasks over the statement positions of its language, the representation
``lattice`` computes extensions in.  h is a model iff
``reach & extension_mask(h) == decided``, and every other question about
the task is a popcount or a lowest set bit of such masks.  Like the
language, a task keeps no mask per statement: for the big derived languages
of the spec corpus it computes each extension on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    DegenerateTaskError,
    IncompatibleLanguageError,
    InvalidTaskError,
    MembershipError,
    NoDecisionError,
    TaskPreconditionError,
)
from .lattice import Language, Statement


@dataclass(frozen=True)
class Decision:
    """A decision produced for a situation, flagged against a task's
    correct set."""

    statement: Statement
    correct: bool


@dataclass(eq=False)
class VTask:
    """Situations S, correct decisions D, and (lazily) the model set M.

    Situations must be statements of the language's vocabulary; in an
    explicit-universe language they need not be members of the universe
    itself.  ``reach`` is the position mask of Z_S, the members containing
    some situation, and ``decided`` the position mask of D.
    """

    lang: Language
    situations: tuple[Statement, ...]
    decisions: tuple[Statement, ...]
    reach: int
    decided: int
    _models: tuple[Statement, ...] | None = field(default=None, repr=False)

    def models(self) -> tuple[Statement, ...]:
        """All statements h of the language with Z_S ∩ Z_h = D, in global
        order; computed once and cached.

        A model contains no predicate outside the intersection of the
        decisions, since every decision lies in its extension, so only the
        members inside that intersection are tested."""
        if self._models is None:
            lang = self.lang
            common = set.intersection(*(set(d.members) for d in self.decisions))
            inside = lang.subset_mask(Statement.of(common))
            self._models = tuple(
                h for h in lang.statements_of(inside)
                if self.reach & lang.extension_mask(h) == self.decided
            )
        return self._models

    def is_model(self, h: Statement) -> bool:
        return self.reach & self.lang._checked_extension(h) == self.decided


def make_task(
    lang: Language,
    situations: Iterable[Statement],
    decisions: Iterable[Statement],
) -> VTask:
    """Validate and build a task with its reach and decision masks; models
    are not computed eagerly.

    Situations must form a proper subset of the universe whenever they are
    all members of it; decisions must be reachable from the situations.
    """
    sit = tuple(sorted(set(situations)))
    dec = tuple(sorted(set(decisions)))
    if not sit:
        raise DegenerateTaskError("a task needs at least one situation")
    if not dec:
        raise DegenerateTaskError("a task needs at least one correct decision")
    for s in sit:
        if not lang.is_statement(s):
            raise MembershipError(
                f"situation {s!r} is not a statement of the language's vocabulary"
            )
    if len(sit) == lang.size and all(s in lang for s in sit):
        raise InvalidTaskError("situations must be a proper subset of the universe")
    reach = 0
    for s in sit:
        reach |= lang.extension_mask(s)
    # the bit of each decision's position, 0 for a non-member
    bits = [(ext := lang._member_extension(d)) & -ext for d in dec]
    bad = [d for d, bit in zip(dec, bits) if not reach & bit]
    if bad:
        listed = ", ".join(repr(d) for d in bad)
        raise InvalidTaskError(
            f"decisions not reachable from the situations: {listed}"
        )
    decided = sum(bits)
    return VTask(lang, sit, dec, reach, decided)


def attempt_task(task: VTask, h: Statement, s: Statement) -> Decision:
    """Decide situation ``s`` under hypothesis ``h``.

    Returns the first statement of Z_s ∩ Z_h in global order, flagged
    correct iff it is one of the task's correct decisions.  If h is a model
    the flag is guaranteed correct.
    """
    if s not in task.situations:
        raise TaskPreconditionError(f"{s!r} is not a situation of this task")
    lang = task.lang
    joint = lang._checked_extension(h) & lang.extension_mask(s)
    if not joint:
        raise NoDecisionError(
            f"hypothesis {h!r} admits no decision for situation {s!r}"
        )
    first = (joint & -joint).bit_length() - 1
    (decision,) = lang.statements_of(1 << first)
    return Decision(decision, bool(task.decided >> first & 1))


def is_child(a: VTask, w: VTask) -> bool:
    """Task containment: situations properly contained, decisions contained."""
    if a.lang != w.lang:
        raise IncompatibleLanguageError("tasks built over different languages")
    return set(a.situations) < set(w.situations) and a.decided & ~w.decided == 0
