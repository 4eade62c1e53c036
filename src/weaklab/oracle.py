"""Exhaustive brute-force verification on small languages.

Enumerates the full task census of a language (every nonempty proper
situation set with every nonempty reachable decision set) and checks, for
every task with models, that the weakest models are never beaten on the
count of census parents they generalise to.  A census depends only on the
members' extension masks, and calls that share one ``swept`` dict sweep each
distinct mask tuple once.  A sweep builds its reach table and census size in
whole-list passes, O(n·2^n) for n members, then visits the situation sets
grouped by reach, one group alive at a time, and reads each multi-model
task's per-model parent counts for the whole group in one ``_parent_counts``
call (``_sweep``).  So the cap counts members: a language of more than
``max_members`` (default 10, at most ``MAX_MEMBERS``) is refused before its
masks are built.  A report is per statement universe: census size, tasks
checked and violations in its members, the same for every language of it;
the labels that rebuild a language (state count, truth tables, an explicit
language's listed universe) are per language, and ``verify`` reads them off
the language.  The generators derive each key (predicate count, set of state
rows) once per call, and ``verify`` checks each universe once.

Also home of the two built-in fixtures: the two-state language, and the
explicit-universe language on which the two proxies pick different models.
"""

from __future__ import annotations

import itertools
import random
from contextlib import suppress
from dataclasses import dataclass
from operator import add, itemgetter, or_
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, FixtureError
from .induction import (
    INVERSE_DESCRIPTION_LENGTH,
    WEAKNESS,
    ExclusiveFamily,
    exclusive_family_sum,
    induce,
)
from .lattice import (
    DEFAULT_LANGUAGE_CAP,
    DERIVED,
    Language,
    Predicate,
    StateSpace,
    Statement,
    Vocabulary,
    row_members,
)
from .tasks import VTask, make_task

DEFAULT_MAX_MEMBERS = 10  # keeps the derived languages of censuses <= 10^6 tasks
MAX_MEMBERS = 20  # a 20-member sweep takes up to about 4 s and 110 MB of peak RSS


# ---------------------------------------------------------------------------
# census


def _census(ext: list[int]) -> tuple[list[int], int]:
    """The reach table over the member extension masks ``ext`` (reach[m]: the
    members containing some statement at a set bit of m) and the census size."""
    reach = [0]
    for e in ext:  # the masks with member i are those without it, OR its mask
        reach += list(map(or_, reach, itertools.repeat(e)))
    terms = sum(map((1).__lshift__, map(int.bit_count, reach)))  # 2^|Z_m| over every m
    # less the full mask's term (no situation set), mask 0's term 1 and 1 per S
    return reach, terms - (1 << reach[-1].bit_count()) - len(reach) + 1


def _superset_sums(g: list[int]) -> None:
    """In place over 2^n entries, g[m] becomes the sum of g[t] over t ⊇ m: per
    bit, the masks without it take their partners', by strided slices while
    the bit is low and by contiguous blocks once it is high.  The sweep calls
    none; a per-model census measure read from superset sums would."""
    size = len(g)
    for i in range(size.bit_length() - 1):
        bit, step = 1 << i, 2 << i
        if bit * step < size:
            for r in range(bit):
                g[r::step] = map(add, g[r::step], g[r + bit::step])
        else:
            for lo in range(0, size, step):
                g[lo:lo + bit] = map(add, g[lo:lo + bit], g[lo + bit:lo + step])


# ---------------------------------------------------------------------------
# weakness-optimality verification


@dataclass(frozen=True)
class Violation:
    """A weakness-maximal model that failed to attain the maximum parent
    count of its task; grounds for failing the whole suite."""

    situations: tuple[tuple[int, ...], ...]
    decisions: tuple[tuple[int, ...], ...]
    weak_model: tuple[int, ...]
    weak_count: int
    best_model: tuple[int, ...]
    best_count: int


@dataclass
class OptimalityReport:
    """What a census decides: a function of the statement universe alone."""

    census_size: int
    tasks_checked: int
    violations: list[Violation]


def verify_weakness_optimality(
    lang: Language, max_members: int = DEFAULT_MAX_MEMBERS, swept: dict | None = None
) -> OptimalityReport:
    """Sweep every census task with a nonempty model set.

    Checks that every weakness-maximal model of a task attains the task's
    maximum parent count.  Raises CapacityError for a language of more than
    ``max_members`` members, before its extension masks are built.  Calls
    that share one ``swept`` dict sweep each census once.
    """
    if lang.size > max_members:
        raise CapacityError("census members", max_members)
    ext = lang.extension_masks()
    swept = {} if swept is None else swept
    if (key := tuple(ext)) not in swept:
        swept[key] = _sweep(ext)
    size, tasks, raw = swept[key]
    rep = OptimalityReport(size, tasks, [])
    for s_mask, d, h, count, best_h, best in raw:  # a fresh list, this universe's members
        rep.violations.append(Violation(
            tuple(s.members for s in lang.statements_of(s_mask)),
            tuple(s.members for s in lang.statements_of(d)),
            row_members(lang.rows[h]), count, row_members(lang.rows[best_h]), best,
        ))
    return rep


def _parent_counts(s_masks: list[int], d: int, models: list[int], n: int) -> list[list[int]]:
    """One column per model of the tasks (S, D), S over the situation sets
    ``s_masks`` of one reach, D with two or more models, n members: the census
    parents the model is a model of, per S in order.  A parent has a situation
    set T ⊋ S short of the full mask and decisions D ⊆ D' ⊆ Z_T, and model h is
    a model of the one with D' = Z_T ∩ Z_h, so every model reads 2^(n-|S|) - 2,
    the number of such T.  The one place that reads a per-model parent count;
    another census measure replaces it."""
    col = [(1 << (n - s.bit_count())) - 2 for s in s_masks]
    return [col] * len(models)


def _sweep(ext: list[int]) -> tuple[int, int, list[tuple]]:
    """Census size, tasks checked and the violations as position tuples
    (S, D, weak model, its count, best model, best count).

    The tasks of S depend on S only through Z_S, so the situation sets are
    visited grouped by Z_S, one group alive at a time; one pass per group sorts
    the members h by D = Z_S ∩ Z_h, and each task with two or more models takes
    one ``_parent_counts`` call for the whole group.  The violations are sorted
    back into S order.
    """
    reach, size = _census(ext)
    n, weak = len(ext), [e.bit_count() for e in ext]
    tasks, raw = 0, []
    by_reach = sorted(range(1, len(reach) - 1), key=reach.__getitem__)
    for zs, s_masks in itertools.groupby(by_reach, reach.__getitem__):
        groups: dict[int, list[int]] = {}  # D: its models h
        for h, e in enumerate(ext):
            if d := zs & e:
                groups.setdefault(d, []).append(h)
        s_masks = list(s_masks)
        tasks += len(groups) * len(s_masks)
        for d, models in groups.items():
            if len(models) < 2:  # a lone model has its task's best count
                continue
            cols = _parent_counts(s_masks, d, models, n)
            if cols.count(cols[0]) == len(cols):  # a tie at every S
                continue
            w_max = max([weak[h] for h in models])
            for s_mask, counts in zip(s_masks, zip(*cols)):
                best = max(counts)
                for h, count in zip(models, counts):
                    if count < best and weak[h] == w_max:
                        raw.append((s_mask, d, h, count, models[counts.index(best)], best))
    raw.sort(key=itemgetter(0))  # out of the visit by reach; stable within each S
    return size, tasks, raw


# ---------------------------------------------------------------------------
# prior report


def prior_report(lang: Language) -> list[ExclusiveFamily]:
    """One exclusive-family sum per statement; totals recorded, never
    asserted equal to 1."""
    return [exclusive_family_sum(lang, s) for s in lang.statements]


# ---------------------------------------------------------------------------
# fixtures


def tiny_language() -> Language:
    """Two states, two predicates each true at exactly one state; the
    derived language is {∅, {p}, {q}}."""
    space = StateSpace(("s1", "s2"))
    vocab = Vocabulary((Predicate("p", 0b01), Predicate("q", 0b10)))
    return Language.derive(space, vocab)


_DIVERGENCE_STATES = ("s1", "s2", "s3", "s4", "s5", "s6")
_DIVERGENCE_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h", "j", "k", "z")
# The six maximal statements, by predicate name; predicate truth tables are
# read off them (predicate true at state i iff it appears in statement i).
_DIVERGENCE_MAXIMAL = (
    ("a", "b", "c", "d", "j", "k", "z"),
    ("e", "b", "c", "d", "k"),
    ("a", "f", "c", "d", "j"),
    ("e", "b", "g", "d", "j", "k", "z"),
    ("a", "f", "c", "h", "j", "k"),
    ("e", "f", "g", "h", "j", "k"),
)


@dataclass(frozen=True)
class DivergenceFixture:
    """Explicit-universe language and task on which the two proxies part
    ways: weakness picks the two-predicate model, description length picks
    the singleton."""

    lang: Language
    task: VTask
    models: tuple[Statement, ...]
    weakness_winner: Statement
    mdl_winner: Statement
    weakness_values: dict[Statement, int]


def divergence_fixture() -> DivergenceFixture:
    """Build the fixture and self-check every expected value; any mismatch
    raises FixtureError (build-breaking)."""
    space = StateSpace(_DIVERGENCE_STATES)
    truth = {name: 0 for name in _DIVERGENCE_NAMES}
    for state_idx, stmt in enumerate(_DIVERGENCE_MAXIMAL):
        for name in stmt:
            truth[name] |= 1 << state_idx
    vocab = Vocabulary(tuple(Predicate(n, truth[n]) for n in _DIVERGENCE_NAMES))
    idx = {name: i for i, name in enumerate(_DIVERGENCE_NAMES)}

    def stmt(names: Iterable[str]) -> Statement:
        return Statement.of(idx[n] for n in names)

    universe = [stmt(names) for names in _DIVERGENCE_MAXIMAL]
    singleton, pair = stmt(["z"]), stmt(["j", "k"])
    universe += [singleton, pair]
    lang = Language.explicit(space, vocab, universe)

    task = make_task(lang, situations=[stmt(["a", "b"]), stmt(["e", "b"])],
                     decisions=[universe[0], universe[3]])

    expected_models = tuple(sorted([singleton, pair]))
    got_models = task.models()
    if got_models != expected_models:
        raise FixtureError(f"model set {got_models} != expected {expected_models}")
    w_winner = induce(task, WEAKNESS)
    l_winner = induce(task, INVERSE_DESCRIPTION_LENGTH)
    if w_winner != pair:
        raise FixtureError(f"weakness proxy selected {w_winner}, expected {pair}")
    if l_winner != singleton:
        raise FixtureError(f"description-length proxy selected {l_winner}, "
                           f"expected {singleton}")
    weak = {pair: lang.weakness(pair), singleton: lang.weakness(singleton)}
    if weak[pair] != 5 or weak[singleton] != 3:
        raise FixtureError(f"weakness values {weak} != expected ({pair}:5, {singleton}:3)")
    return DivergenceFixture(lang, task, expected_models, pair, singleton, weak)


# ---------------------------------------------------------------------------
# derived-language enumeration and sampling for theorem sweeps


class _Universes(dict):
    """One generator call's derived languages by key: the predicate count and
    the set of state rows, a state's truth values after a constant 0 (so that
    no predicates still give a row per state).  A derived language's rows and
    predicate masks depend on nothing else: a key is derived once, later
    languages share its rows and masks, and a key over the cap raises
    CapacityError again without a derive."""

    def __init__(self, cap: int = DEFAULT_LANGUAGE_CAP) -> None:
        super().__init__()
        self.cap, self.named, self.columns = cap, {}, {}  # the call's predicates, tables

    def language(self, space: StateSpace, combo: Sequence[int]) -> Language:
        named, columns, n = self.named, self.columns, space.size
        vocab = Vocabulary(tuple([named.get(it) or named.setdefault(
            it, Predicate(f"p{it[0]}", it[1])) for it in enumerate(combo)]))
        cols = [columns.get((n, t)) or columns.setdefault(
            (n, t), tuple(t >> i & 1 for i in range(n))) for t in combo]
        if (key := (len(combo), frozenset(zip(itertools.repeat(0, n), *cols)))) not in self:
            self[key] = None  # kept if the derive raises
            self[key] = Language.derive(space, vocab, self.cap)
        if (first := self[key]) is None:
            raise CapacityError("derived language size", self.cap)
        return Language(space, vocab, DERIVED, first.rows, first._pred)


def all_derived_languages(max_states: int, max_vocab: int) -> Iterator[Language]:
    """Every derived language with between 1 and max_states states and up to
    max_vocab predicates, predicates drawn without repetition from all
    possible truth tables; each key is derived once per call (``_Universes``)."""
    universes = _Universes()
    for n_states in range(1, max_states + 1):
        space = StateSpace(tuple(f"s{i}" for i in range(n_states)))
        tables = range(1 << n_states)
        for k in range(0, min(max_vocab, len(tables)) + 1):  # no k-subsets past that
            for combo in itertools.combinations(tables, k):
                yield universes.language(space, combo)


def sample_derived_languages(n_states: int, count: int, seed: int | str, max_vocab: int = 4,
                             max_members: int = DEFAULT_MAX_MEMBERS) -> list[Language]:
    """Seeded sample of derived languages over ``n_states`` states of at most
    ``max_members`` members, each with 1 to ``max_vocab`` predicates of
    distinct truth tables (so no more than 2^n_states); oversized draws are
    skipped, up to 200 per language asked for.  A draw's derive stops past
    ``max_members``, and each key is derived once per call."""
    rng = random.Random(f"weaklab-language-sample|{seed}|{n_states}")
    attempts_left = count * 200
    space = StateSpace(tuple(f"s{i}" for i in range(n_states)))
    universes, out = _Universes(max_members), []
    while len(out) < count:
        if attempts_left <= 0:
            raise CapacityError("language sampling attempts", len(out))
        attempts_left -= 1
        k = rng.randint(1, min(max_vocab, 1 << n_states))
        combo = sorted(rng.sample(range(1 << n_states), k))
        with suppress(CapacityError):  # a draw over max_members
            out.append(universes.language(space, combo))
    return out
