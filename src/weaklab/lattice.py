"""Finite statement lattices: states, predicates, vocabularies, languages.

A statement is a satisfiable conjunction of predicates, identified by the
sorted tuple of its predicate indices.  A language is a finite universe of
statements, either derived (every satisfiable subset of the vocabulary) or
explicit (a universe listed verbatim).  All counting is exact.

A language is rows plus masks.  ``rows`` holds one member int per
statement position, in global order (bit p set when predicate p is in the
statement); ``_pred`` holds one position mask per predicate, the members
that contain it, read from the rows packed as bytes (``_column_masks``).
The extension of any statement of the vocabulary, member or not, is the AND
of its predicates' masks, so weakness, models and probabilities are
popcounts.  Global order puts a statement before all its proper supersets,
so a member's position is the lowest set bit of its extension, and a
statement is a member exactly when the row there is its own member int.
``Statement`` objects are built only on demand: ``statements`` on first
access, ``statements_of`` at the set bits of a mask.  A derived language
can hold thousands of statements, of which a task reads a handful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, total_ordering
from itertools import compress, repeat
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, MembershipError, VocabularyError

DEFAULT_LANGUAGE_CAP = 1_000_000

DERIVED = "derived"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of states."""

    states: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("state identifiers must be unique")

    @classmethod
    def bits(cls, width: int) -> "StateSpace":
        if width < 0:
            raise ValueError("width must be >= 0")
        if width > 20:
            raise ValueError("bit-string spaces wider than 20 are not supported")
        return cls(tuple(format(i, f"0{width}b") for i in range(1 << width)))

    @property
    def size(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Predicate:
    """Named truth-valued function over a state space, stored extensionally:
    bit i of ``truth`` is its value at state i."""

    name: str
    truth: int


@dataclass(frozen=True)
class Vocabulary:
    """Indexed finite list of predicates; names unique, indices dense from 0."""

    predicates: tuple[Predicate, ...]

    def __post_init__(self):
        names = [p.name for p in self.predicates]
        if len(set(names)) != len(names):
            raise VocabularyError("duplicate predicate name in vocabulary")
        tables = [p.truth for p in self.predicates]
        if len(set(tables)) != len(tables):
            warnings.warn(
                "vocabulary contains distinct predicates with identical truth "
                "tables; they are kept as distinct named members",
                stacklevel=3,
            )

    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    def __getitem__(self, index: int) -> Predicate:
        return self.predicates[index]

    def index_of(self, name: str) -> int:
        for i, p in enumerate(self.predicates):
            if p.name == name:
                return i
        raise KeyError(f"no predicate named {name!r}")


@total_ordering
@dataclass(frozen=True, slots=True)
class Statement:
    """Sorted duplicate-free set of predicate indices, read conjunctively.

    The order (cardinality, then index tuple) is the global deterministic
    tie-break used everywhere downstream.  ``Statement(members)`` validates
    its tuple; ``_statements`` builds them from member ints.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be sorted and duplicate-free")
        if self.members and self.members[0] < 0:
            raise ValueError("negative predicate index")

    @classmethod
    def of(cls, indices: Iterable[int] = ()) -> "Statement":
        return cls(tuple(sorted(set(indices))))

    def __lt__(self, other: "Statement") -> bool:
        return (len(self.members), self.members) < (len(other.members), other.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __repr__(self):
        return "{" + ",".join(map(str, self.members)) + "}"


def row_members(h: int) -> tuple[int, ...]:
    """The predicate indices of a member int, sorted: its set bits."""
    return tuple(p for p in range(h.bit_length()) if h >> p & 1)


def _statements(rows: Iterable[int]) -> tuple[Statement, ...]:
    """Statements of member ints, with no Python frame per statement and
    without the checks of ``Statement(...)``, which ``row_members`` meets."""
    tuples = list(map(row_members, rows))
    out = list(map(object.__new__, repeat(Statement, len(tuples))))
    any(map(object.__setattr__, out, repeat("members"), tuples))  # each None
    return tuple(out)


_SELECTORS = bytes.maketrans(b"01", b"\0\1")  # base-2 digits to compress selectors
# _BIT_COLUMN[b] maps a byte to ASCII '1' where its bit b is set, else '0'
_BIT_COLUMN = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]


def _column_masks(rows: Sequence[int], n_predicates: int) -> list[int]:
    """Per predicate p, the position mask whose bit i is bit p of row i.

    The rows are packed as one little-endian run of ``width`` bytes each.
    Predicate p's column is every ``width``-th byte from byte p >> 3; the
    translation to '0'/'1' by bit p & 7, reversed so that position 0 is the
    last digit, is the mask in base 2.
    """
    if not rows:
        return [0] * n_predicates
    width = (n_predicates + 7) >> 3
    packed = b"".join(map(int.to_bytes, rows, repeat(width), repeat("little")))
    return [
        int(packed[p >> 3::width].translate(_BIT_COLUMN[p & 7])[::-1], 2)
        for p in range(n_predicates)
    ]


@dataclass(eq=False)
class Language:
    """Finite universe of statements over a vocabulary, held as rows plus
    masks: ``rows``, the member int of each position (bit p for predicate
    p), and ``_pred``, the position mask of each predicate.  Positions follow
    the global order (size, then lexicographic on indices), so a member's
    position is the lowest bit of its extension.  Derived languages contain
    exactly the satisfiable subsets of the vocabulary; explicit languages
    contain a listed universe.  ``statements`` is built on first access.
    """

    space: StateSpace
    vocab: Vocabulary
    mode: str
    rows: tuple[int, ...]
    _pred: list[int] = field(repr=False)  # per predicate, the members holding it

    # -- construction ------------------------------------------------------

    @classmethod
    def derive(
        cls,
        space: StateSpace,
        vocab: Vocabulary,
        cap: int = DEFAULT_LANGUAGE_CAP,
    ) -> "Language":
        """Enumerate every satisfiable subset of the vocabulary.

        Subsets are generated in the global order.  Satisfiability is
        monotone downward, so each size level extends the previous one.
        A node of a level is its satisfying states and its member int; it
        extends by the predicates above its highest one, read from a suffix
        table of (truth, bit) pairs.  The member ints of the levels are the
        rows, from which the predicate masks are read.
        Raises CapacityError as soon as more than ``cap`` statements exist.
        """
        if cap < 1:
            raise ValueError("cap must be >= 1")
        _check_vocab_space(space, vocab)
        pairs = [(p.truth, 1 << j) for j, p in enumerate(vocab)]
        above = [tuple(pairs[k:]) for k in range(len(pairs) + 1)]  # predicates k and up
        rows: list[int] = []
        level = [((1 << space.size) - 1, 0)] if space.size else []
        while level:
            if len(rows) + len(level) > cap:
                raise CapacityError("derived language size", cap)
            rows += [h for _, h in level]
            level = [
                (b, h | bit)
                for sat, h in level
                for truth, bit in above[h.bit_length()]
                if (b := sat & truth)
            ]
        return cls(space, vocab, DERIVED, tuple(rows), _column_masks(rows, len(vocab)))

    @classmethod
    def explicit(
        cls,
        space: StateSpace,
        vocab: Vocabulary,
        statements: Iterable[Statement],
    ) -> "Language":
        """Build a language from a verbatim statement universe; each
        statement is checked before its row is packed."""
        _check_vocab_space(space, vocab)
        listed: dict[tuple[int, ...], Statement] = {}
        for s in statements:
            if s.members in listed:
                raise ValueError(f"duplicate statement {s!r} in explicit universe")
            listed[s.members] = s
        ordered = sorted(listed.values())
        for s in ordered:
            if not _sat_set(space, vocab, s):
                raise ValueError(f"explicit statement {s!r} is unsatisfiable")
        rows = tuple(sum(1 << p for p in s.members) for s in ordered)
        return cls(space, vocab, EXPLICIT, rows, _column_masks(rows, len(vocab)))

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.rows)

    @cached_property
    def statements(self) -> tuple[Statement, ...]:
        """Every member, in global order."""
        return _statements(self.rows)

    def _member_extension(self, s: Statement) -> int:
        """The extension mask of ``s`` if it is a member, else 0: a member's
        extension holds it at the lowest bit, where the row is its int ``h``."""
        pred, mask, h = self._pred, (1 << len(self.rows)) - 1, 0
        for p in s.members:
            if p >= len(pred):
                return 0
            mask &= pred[p]
            h |= 1 << p
        return mask if mask and self.rows[(mask & -mask).bit_length() - 1] == h else 0

    def __contains__(self, s: Statement) -> bool:
        return bool(self._member_extension(s))

    def _checked_extension(self, s: Statement) -> int:
        if mask := self._member_extension(s):
            return mask
        raise MembershipError(f"statement {s!r} is not in the language")

    def position(self, s: Statement) -> int:
        """Index of the member ``s`` in global order: the lowest bit of its
        extension."""
        mask = self._checked_extension(s)
        return (mask & -mask).bit_length() - 1

    # -- semantics ---------------------------------------------------------

    def sat_set(self, s: Statement) -> int:
        """Bitmask of the states satisfying every member predicate; all
        states for the empty statement."""
        return _sat_set(self.space, self.vocab, s)

    def is_statement(self, s: Statement) -> bool:
        """True iff ``s`` indexes into the vocabulary and is satisfiable."""
        if s.members and s.members[-1] >= len(self.vocab):
            return False
        return bool(self.sat_set(s))

    # -- extensions --------------------------------------------------------

    def extension_mask(self, s: Statement) -> int:
        """Bitmask over statement positions of the members containing ``s``,
        a statement of the vocabulary that need not be a member itself: the
        AND of the masks of its predicates, every position when ``s`` is
        empty."""
        pred = self._pred
        mask = (1 << self.size) - 1
        for p in s.members:
            mask &= pred[p]
        return mask

    def subset_mask(self, s: Statement) -> int:
        """Bitmask over statement positions of the members contained in
        ``s``: those holding no predicate outside it."""
        mask = (1 << self.size) - 1
        for p, held in enumerate(self._pred):
            if p not in s:
                mask &= ~held
        return mask

    def extension_masks(self) -> list[int]:
        """Per statement position i, the extension mask of statement i.
        Built afresh on each call, one mask per statement, so it is meant
        for small languages only; big ones compute masks on demand."""
        return [self.extension_mask(s) for s in self.statements]

    def statements_of(self, mask: int) -> tuple[Statement, ...]:
        """Members at the set bits of a position mask, in global order."""
        bits = bin(mask)[:1:-1].encode().translate(_SELECTORS)  # byte i is bit i
        return _statements(compress(self.rows, bits))

    def extension(self, s: Statement) -> tuple[Statement, ...]:
        """All members containing the member statement ``s`` (itself included)."""
        return self.statements_of(self._checked_extension(s))

    def weakness(self, s: Statement) -> int:
        """Cardinality of the extension of a member statement (exact)."""
        return self._checked_extension(s).bit_count()

    def format_statement(self, s: Statement) -> str:
        return "{" + ",".join(self.vocab[i].name for i in s.members) + "}"

    def same_as(self, other: "Language") -> bool:
        """Structural identity: same space, vocabulary, mode and rows."""
        return (
            self is other
            or (
                self.space == other.space
                and self.vocab == other.vocab
                and self.mode == other.mode
                and self.rows == other.rows
            )
        )


def _sat_set(space: StateSpace, vocab: Vocabulary, s: Statement) -> int:
    bits = (1 << space.size) - 1
    for i in s.members:
        if not 0 <= i < len(vocab):
            raise IndexError(f"predicate index {i} out of range")
        bits &= vocab[i].truth
    return bits


def _check_vocab_space(space: StateSpace, vocab: Vocabulary) -> None:
    for p in vocab:
        if p.truth < 0 or p.truth >> space.size:
            raise VocabularyError(
                f"predicate {p.name!r} has truth table {p.truth:#x}, "
                f"not a subset of the {space.size} states of the space"
            )
