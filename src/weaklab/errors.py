"""Exception taxonomy shared by all weaklab modules."""


class WeaklabError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(WeaklabError):
    """An enumeration would exceed its configured cap."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeds cap of {cap}")
        self.what = what
        self.cap = cap


class MembershipError(WeaklabError):
    """A statement is not a member of the language it was used with."""


class VocabularyError(WeaklabError):
    """Ill-formed vocabulary (duplicate predicates, bad truth table length)."""


class TaskError(WeaklabError):
    """Base class for task construction and task execution errors."""


class InvalidTaskError(TaskError):
    """Decision set not contained in the reachable decisions of the situations."""


class DegenerateTaskError(TaskError):
    """Empty situation or decision set."""


class NoDecisionError(TaskError):
    """A hypothesis admits no decision for the presented situation."""


class TaskPreconditionError(TaskError):
    """A task operation was invoked outside its precondition."""


class IncompatibleLanguageError(TaskError):
    """Two tasks built over different languages were compared."""


class NoModelError(WeaklabError):
    """The task has an empty model set."""


class FixtureError(WeaklabError):
    """A built-in fixture failed its self-check; the build is broken."""

