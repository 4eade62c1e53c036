"""Finite statement lattices: states, predicates, vocabularies, languages.

A statement is a satisfiable conjunction of predicates, identified by the
sorted tuple of its predicate indices.  A language is a finite universe of
statements, either derived (every satisfiable subset of the vocabulary) or
explicit (a universe listed verbatim).  All counting is exact.

Sets of members are bitmasks over statement positions (bit i is the i-th
statement in global order).  A language keeps one mask per predicate, the
positions of the members that contain it, built in one pass on first use.
The extension of any statement of the vocabulary, member or not, is the AND
of its predicates' masks, so weakness, models and probabilities are
popcounts.  No mask is stored per statement: a derived language can hold
thousands of statements, so extensions are computed on demand, and only
``Language.extension_masks`` lists them all, for the oracle's tiny
languages.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Iterable, Iterator

from .errors import CapacityError, MembershipError, VocabularyError

DEFAULT_LANGUAGE_CAP = 1_000_000

DERIVED = "derived"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of states; bit-string spaces carry their width."""

    states: tuple[str, ...]
    width: int | None = None

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("state identifiers must be unique")
        if self.width is not None and len(self.states) != 1 << self.width:
            raise ValueError("bit-string space must have 2^width states")

    @classmethod
    def bits(cls, width: int) -> "StateSpace":
        if width < 0:
            raise ValueError("width must be >= 0")
        if width > 20:
            raise ValueError("bit-string spaces wider than 20 are not supported")
        return cls(tuple(format(i, f"0{width}b") for i in range(1 << width)), width)

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
@dataclass(frozen=True)
class Statement:
    """Sorted duplicate-free set of predicate indices, read conjunctively.

    The order (cardinality, then index tuple) is the global deterministic
    tie-break used everywhere downstream.
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

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.members), self.members)

    def __lt__(self, other: "Statement") -> bool:
        return self.sort_key < other.sort_key

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def issubset(self, other: "Statement") -> bool:
        return set(self.members) <= set(other.members)

    def __repr__(self):
        return "{" + ",".join(map(str, self.members)) + "}"


@dataclass(eq=False)
class Language:
    """Finite universe of statements over a vocabulary.

    ``statements`` is always in the global order (size, then lexicographic on
    indices).  Derived languages contain exactly the satisfiable subsets of
    the vocabulary; explicit languages contain a listed universe.
    """

    space: StateSpace
    vocab: Vocabulary
    mode: str
    statements: tuple[Statement, ...]
    _index: dict[tuple[int, ...], int] = field(repr=False, default_factory=dict)
    _pred: list[int] | None = field(repr=False, default=None)

    def __post_init__(self):
        if not self._index:
            self._index = {s.members: i for i, s in enumerate(self.statements)}

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
        Raises CapacityError as soon as more than ``cap`` statements exist.
        """
        if cap < 1:
            raise ValueError("cap must be >= 1")
        _check_vocab_space(space, vocab)
        statements: list[Statement] = []
        sat_bits: list[tuple[tuple[int, ...], int]] = []
        if space.size > 0:
            full = (1 << space.size) - 1
            level = [((), full)]
            while level:
                for members, bits in level:
                    if len(statements) >= cap:
                        raise CapacityError("derived language size", cap)
                    statements.append(Statement(members))
                nxt = []
                for members, bits in level:
                    lo = members[-1] + 1 if members else 0
                    for j in range(lo, len(vocab)):
                        b = bits & vocab[j].truth
                        if b:
                            nxt.append((members + (j,), b))
                level = nxt
        return cls(space, vocab, DERIVED, tuple(statements))

    @classmethod
    def explicit(
        cls,
        space: StateSpace,
        vocab: Vocabulary,
        statements: Iterable[Statement],
    ) -> "Language":
        """Build a language from a verbatim statement universe."""
        _check_vocab_space(space, vocab)
        seen = set()
        listed = []
        for s in statements:
            if s.members in seen:
                raise ValueError(f"duplicate statement {s!r} in explicit universe")
            seen.add(s.members)
            listed.append(s)
        lang = cls(space, vocab, EXPLICIT, tuple(sorted(listed)))
        for s in lang.statements:
            if not lang.sat_set(s):
                raise ValueError(f"explicit statement {s!r} is unsatisfiable")
        return lang

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.statements)

    def __contains__(self, s: Statement) -> bool:
        return s.members in self._index

    def position(self, s: Statement) -> int:
        try:
            return self._index[s.members]
        except KeyError:
            raise MembershipError(f"statement {s!r} is not in the language") from None

    # -- semantics ---------------------------------------------------------

    def sat_set(self, s: Statement) -> int:
        """Bitmask of the states satisfying every member predicate; all
        states for the empty statement."""
        bits = (1 << self.space.size) - 1
        for i in s.members:
            if not 0 <= i < len(self.vocab):
                raise IndexError(f"predicate index {i} out of range")
            bits &= self.vocab[i].truth
        return bits

    def is_statement(self, s: Statement) -> bool:
        """True iff ``s`` indexes into the vocabulary and is satisfiable."""
        if s.members and s.members[-1] >= len(self.vocab):
            return False
        return bool(self.sat_set(s))

    # -- extensions --------------------------------------------------------

    def _predicate_masks(self) -> list[int]:
        # mask[p] = bitmask over statement positions of the members holding p
        if self._pred is None:
            rows = [bytearray((self.size + 7) // 8) for _ in self.vocab]
            for i, s in enumerate(self.statements):
                for p in s.members:
                    rows[p][i >> 3] |= 1 << (i & 7)
            self._pred = [int.from_bytes(row, "little") for row in rows]
        return self._pred

    def extension_mask(self, s: Statement) -> int:
        """Bitmask over statement positions of the members containing ``s``,
        a statement of the vocabulary that need not be a member itself: the
        AND of the masks of its predicates, every position when ``s`` is
        empty."""
        pred = self._predicate_masks()
        mask = (1 << self.size) - 1
        for p in s.members:
            mask &= pred[p]
        return mask

    def subset_mask(self, s: Statement) -> int:
        """Bitmask over statement positions of the members contained in
        ``s``: those holding no predicate outside it."""
        mask = (1 << self.size) - 1
        for p, held in enumerate(self._predicate_masks()):
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
        bits = bin(mask)[:1:-1]  # character i is bit i
        return tuple(s for s, b in zip(self.statements, bits) if b == "1")

    def extension(self, s: Statement) -> tuple[Statement, ...]:
        """All members containing the member statement ``s`` (itself included)."""
        self.position(s)
        return self.statements_of(self.extension_mask(s))

    def extension_of_set(self, stmts: Iterable[Statement]) -> tuple[Statement, ...]:
        """Union of the extensions of ``stmts``, in global order."""
        mask = 0
        for s in stmts:
            if not self.is_statement(s):
                raise MembershipError(
                    f"{s!r} is not a statement of this language's vocabulary"
                )
            mask |= self.extension_mask(s)
        return self.statements_of(mask)

    def weakness(self, s: Statement) -> int:
        """Cardinality of the extension of a member statement (exact)."""
        self.position(s)
        return self.extension_mask(s).bit_count()

    def format_statement(self, s: Statement) -> str:
        return "{" + ",".join(self.vocab[i].name for i in s.members) + "}"

    def same_as(self, other: "Language") -> bool:
        """Structural identity, ignoring memoized caches."""
        return (
            self is other
            or (
                self.space == other.space
                and self.vocab == other.vocab
                and self.mode == other.mode
                and self.statements == other.statements
            )
        )


def _check_vocab_space(space: StateSpace, vocab: Vocabulary) -> None:
    for p in vocab:
        if p.truth < 0 or p.truth >> space.size:
            raise VocabularyError(
                f"predicate {p.name!r} has truth table {p.truth:#x}, "
                f"not a subset of the {space.size} states of the space"
            )
