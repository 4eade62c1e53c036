"""Exhaustive brute-force verification on small languages.

Enumerates the full task census of a language (every nonempty proper
situation set with every nonempty reachable decision set) and checks, for
every task with models, that the weakest models are never beaten on the
count of census parents they generalise to.  The census is swept one
situation set at a time after one superset-sum (zeta) transform, O(n·2^n)
for n members; a task with one model takes only the deviation test.
``verify_weakness_optimality`` returns one record per language: state count
and truth tables (which rebuild a derived language), the listed universe of
an explicit language, census size, tasks checked, violations, and a count of
the (task, model) pairs whose parent fraction differs from the formula,
which counts decision subsets where the census counts concrete tasks.

Also home of the two built-in fixtures: the two-state language, and the
explicit-universe language on which the two proxies pick different models.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, FixtureError
from .induction import (
    INVERSE_DESCRIPTION_LENGTH,
    WEAKNESS,
    ExclusiveFamily,
    exclusive_family_sum,
    induce,
)
from .lattice import (
    EXPLICIT,
    Language,
    Predicate,
    StateSpace,
    Statement,
    Vocabulary,
    row_members,
)
from .tasks import VTask, make_task

DEFAULT_CENSUS_CAP = 1_000_000


# ---------------------------------------------------------------------------
# census


def census_size(lang: Language, cap: int = DEFAULT_CENSUS_CAP) -> int:
    """Exact census cardinality, without materializing tasks.

    Raises CapacityError as soon as the running total exceeds ``cap``.
    """
    return _census(lang, cap)[2]


def _census(lang: Language, cap: int) -> tuple[list[int], list[int], int]:
    """The extension masks of the members, the reach table of the census
    (reach[m] is the mask of the members containing some statement at a set
    bit of m, for every proper situation mask m) and the census size.

    Raises CapacityError as soon as the running total exceeds ``cap``.
    """
    n = lang.size
    # Every census situation set contributes at least 2^|S| - 1 decision
    # sets, so 3^n - 2^(n+1) + 1 is a cheap lower bound on the census.
    if n > 1 and 3**n - (1 << (n + 1)) + 1 > cap:
        raise CapacityError("task census", cap)
    ext = lang.extension_masks()
    full = (1 << n) - 1
    reach = [0] * full
    total = 0
    for mask in range(1, full):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | ext[low.bit_length() - 1]
        total += (1 << reach[mask].bit_count()) - 1
        if total > cap:
            raise CapacityError("task census", cap)
    return ext, reach, total


# ---------------------------------------------------------------------------
# weakness-optimality verification


@dataclass(frozen=True)
class CensusTask:
    """One census task with models, as position masks and counts."""

    situations: int
    decisions: int
    models: tuple[int, ...]  # positions, in global order
    parent_counts: tuple[int, ...]  # census parents each model is a model of
    total_parents: int


def census_tasks(
    lang: Language, census_cap: int = DEFAULT_CENSUS_CAP
) -> Iterator[CensusTask]:
    """Every census task with models and its parent counts, situation masks up, then
    decision sets by first model; raises CapacityError at the call, not at ``next``.

    A parent of (S, D) has a situation set T ⊋ S short of the full mask and decisions
    D ⊆ D' ⊆ Z_T, so ``total_parents`` sums 2^(|Z_T| - |D|) over those T.  The
    superset sums g[m] of 2^|Z_T| over T ⊇ m short of full, n passes of 2^n
    additions, give it as (g[S] - 2^|Z_S|) >> |D|.  A model h is a model of the one
    parent with D' = Z_T ∩ Z_h per T (D ⊆ Z_S ⊆ Z_T and D ⊆ Z_h), so each
    ``parent_counts`` entry is 2^(n-|S|) - 2; the one model of a one-model task has
    the best count, so the check tests such a task for deviation only.
    """
    ext, reach, _ = _census(lang, census_cap)
    return _census_tasks(ext, reach)


def _census_tasks(ext: list[int], reach: list[int]) -> Iterator[CensusTask]:
    for s_mask, _, sets, above, groups, multi in _census_by_situations(ext, reach):
        for d, models in groups.items():
            counts = multi.get(d, (sets,))
            yield CensusTask(s_mask, d, tuple(models), counts, above >> d.bit_count())


def _census_by_situations(ext: list[int], reach: list[int]) -> Iterator[tuple]:
    """Per situation mask S: S, Z_S, its parent count 2^(n-|S|) - 2, the sum
    above S, {D: models} by first model, {D: parent counts} if 2+ models."""
    n = len(ext)
    full = (1 << n) - 1
    # g[m]: sum of 2^|reach[T]| over the masks T ⊇ m short of full
    g = [1 << z.bit_count() for z in reach] + [0]
    for i in range(n):
        bit = 1 << i
        for m in range(full):
            if not m & bit:
                g[m] += g[m | bit]
    for s_mask in range(1, full):
        zs = reach[s_mask]
        count = (1 << (n - s_mask.bit_count())) - 2  # parent situation sets
        groups: dict[int, list[int]] = {}
        multi: dict[int, tuple[int, ...]] = {}
        for h, e in enumerate(ext):
            if (d := zs & e) in groups:
                groups[d].append(h)
                multi[d] = (count,) * len(groups[d])
            elif d:
                groups[d] = [h]
        yield s_mask, zs, count, g[s_mask] - (1 << zs.bit_count()), groups, multi


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
    states: int
    truth_tables: tuple[int, ...]
    universe: tuple[tuple[int, ...], ...] | None  # listed members, explicit only
    census_size: int
    tasks_checked: int
    violations: list[Violation]
    deviation_count: int


def verify_weakness_optimality(
    lang: Language, census_cap: int = DEFAULT_CENSUS_CAP
) -> OptimalityReport:
    """Sweep every census task with a nonempty model set.

    Checks that every weakness-maximal model of a task attains the task's
    maximum parent count, and counts the (task, model) pairs whose parent
    fraction differs from the formula value 2^|Z̄_S ∩ Z_h| / 2^|Z̄_S|.
    """
    ext, reach, total_census = _census(lang, census_cap)
    tables = tuple(p.truth for p in lang.vocab)
    universe = tuple(map(row_members, lang.rows)) if lang.mode == EXPLICIT else None
    rep = OptimalityReport(lang.space.size, tables, universe, total_census, 0, [], 0)
    n = lang.size
    weak = [e.bit_count() for e in ext]
    tasks = deviations = 0
    for s_mask, zs, sets, above, groups, multi in _census_by_situations(ext, reach):
        tasks += len(groups)
        outside = n - zs.bit_count()
        left = sets << outside
        for d, models in groups.items():
            total = above >> d.bit_count()
            # count / total != 2^a / 2^outside, a = |ext[h] \ Z_S| = weak[h] - |D|;
            # a task without parents has count = total = 0 and never counts
            if len(models) == 1:
                deviations += left != total << (weak[models[0]] - d.bit_count())
                continue
            counts = multi[d]
            w_max = max([weak[h] for h in models])
            best = max(counts)
            for h, count in zip(models, counts):
                if count << outside != total << (weak[h] - d.bit_count()):
                    deviations += 1
                if count < best and weak[h] == w_max:
                    best_h = models[counts.index(best)]
                    rep.violations.append(
                        Violation(
                            tuple(s.members for s in lang.statements_of(s_mask)),
                            tuple(s.members for s in lang.statements_of(d)),
                            row_members(lang.rows[h]),
                            count,
                            row_members(lang.rows[best_h]),
                            best,
                        )
                    )
    rep.tasks_checked, rep.deviation_count = tasks, deviations
    return rep


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
    singleton = stmt(["z"])
    pair = stmt(["j", "k"])
    universe += [singleton, pair]
    lang = Language.explicit(space, vocab, universe)

    task = make_task(
        lang,
        situations=[stmt(["a", "b"]), stmt(["e", "b"])],
        decisions=[universe[0], universe[3]],
    )

    expected_models = tuple(sorted([singleton, pair]))
    got_models = task.models()
    if got_models != expected_models:
        raise FixtureError(f"model set {got_models} != expected {expected_models}")
    w_winner = induce(task, WEAKNESS)
    l_winner = induce(task, INVERSE_DESCRIPTION_LENGTH)
    if w_winner != pair:
        raise FixtureError(f"weakness proxy selected {w_winner}, expected {pair}")
    if l_winner != singleton:
        raise FixtureError(
            f"description-length proxy selected {l_winner}, expected {singleton}"
        )
    weak = {pair: lang.weakness(pair), singleton: lang.weakness(singleton)}
    if weak[pair] != 5 or weak[singleton] != 3:
        raise FixtureError(f"weakness values {weak} != expected ({pair}:5, {singleton}:3)")
    return DivergenceFixture(lang, task, expected_models, pair, singleton, weak)


# ---------------------------------------------------------------------------
# derived-language enumeration and sampling for theorem sweeps


def _numbered_vocabulary(tables: Iterable[int]) -> Vocabulary:
    return Vocabulary(tuple(Predicate(f"p{i}", t) for i, t in enumerate(tables)))


def all_derived_languages(
    max_states: int, max_vocab: int
) -> Iterator[Language]:
    """Every derived language with between 1 and max_states states and up to
    max_vocab predicates, predicates drawn without repetition from all
    possible truth tables."""
    for n_states in range(1, max_states + 1):
        space = StateSpace(tuple(f"s{i}" for i in range(n_states)))
        tables = range(1 << n_states)
        for k in range(0, max_vocab + 1):
            for combo in itertools.combinations(tables, k):
                yield Language.derive(space, _numbered_vocabulary(combo))


def sample_derived_languages(
    n_states: int,
    count: int,
    seed: int | str,
    max_vocab: int = 4,
    census_cap: int = DEFAULT_CENSUS_CAP,
) -> list[Language]:
    """Seeded sample of derived languages over ``n_states`` states whose
    census fits ``census_cap``, each with 1 to ``max_vocab`` predicates of
    distinct truth tables (so no more than 2^n_states); oversized draws are
    skipped, up to 200 per language asked for."""
    rng = random.Random(f"weaklab-language-sample|{seed}|{n_states}")
    attempts_left = count * 200
    space = StateSpace(tuple(f"s{i}" for i in range(n_states)))
    out: list[Language] = []
    while len(out) < count:
        if attempts_left <= 0:
            raise CapacityError("language sampling attempts", len(out))
        attempts_left -= 1
        k = rng.randint(1, min(max_vocab, 1 << n_states))
        combo = sorted(rng.sample(range(1 << n_states), k))
        lang = Language.derive(space, _numbered_vocabulary(combo))
        try:
            census_size(lang, census_cap)
        except CapacityError:
            continue
        out.append(lang)
    return out
