"""Exhaustive brute-force verification on small languages.

Enumerates the full task census of a language (every nonempty proper
situation set with every nonempty reachable decision set), then checks, for
every task with models, that the weakest models are never beaten on the
count of census parents they generalise to.  Probability-formula values are
recorded against empirical parent fractions without being asserted equal:
the formula counts decision subsets, the census counts concrete tasks.

Also home of the two built-in fixtures: the two-state language, and the
explicit-universe language on which the weakness and description-length
proxies pick different models.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
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
    Language,
    Predicate,
    StateSpace,
    Statement,
    Vocabulary,
)
from .tasks import VTask, make_task

DEFAULT_CENSUS_CAP = 1_000_000
DEFAULT_REPORT_ROWS = 2_000
PRIOR_REPORT_CAP = 4_096


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
class OptimalityRow:
    """One (task, model) pair of the verification sweep."""

    situations: tuple[tuple[int, ...], ...]
    decisions: tuple[tuple[int, ...], ...]
    model: tuple[int, ...]
    weakness: int
    parent_count: int
    total_parents: int
    formula: Fraction
    empirical: Fraction | None


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
    census_size: int
    tasks_checked: int
    rows_total: int
    rows: list[OptimalityRow]
    violations: list[Violation]
    deviation_count: int


def verify_weakness_optimality(
    lang: Language,
    census_cap: int = DEFAULT_CENSUS_CAP,
    extra_tasks: Sequence[VTask] = (),
    max_rows: int = DEFAULT_REPORT_ROWS,
) -> OptimalityReport:
    """Sweep every census task with a nonempty model set.

    For each model h of each task, counts the census parents the task has
    and how many of them h generalises to, then checks that every
    weakness-maximal model attains the task's maximum parent count.
    ``extra_tasks`` adds rows for tasks of interest (e.g. fixtures) that are
    not themselves census members.
    """
    ext, reach, total_census = _census(lang, census_cap)
    n = lang.size
    full = (1 << n) - 1

    rows: list[OptimalityRow] = []
    rows_total = 0
    tasks_checked = 0
    violations: list[Violation] = []
    deviation_count = 0

    def sweep_task(
        situations: tuple[tuple[int, ...], ...],
        s_mask: int,
        zs: int,
        d_mask: int,
        model_idx: list[int],
    ) -> None:
        # s_mask 0 marks situations outside the universe: census situation
        # sets are drawn from the universe, so such a task has no parents.
        nonlocal rows_total, deviation_count
        d_pc = d_mask.bit_count()
        counts = [0] * len(model_idx)
        total_parents = 0
        comp = full & ~s_mask if s_mask else 0
        t = comp
        while t:
            big = s_mask | t
            if big != full:
                zt = reach[big]
                total_parents += 1 << (zt.bit_count() - d_pc)
                for pos, h in enumerate(model_idx):
                    if zt & ext[h] & d_mask == d_mask:
                        counts[pos] += 1
            t = (t - 1) & comp
        best = max(counts)
        weaknesses = [ext[h].bit_count() for h in model_idx]
        w_max = max(weaknesses)
        decisions = tuple(s.members for s in lang.statements_of(d_mask))
        outside_pc = n - zs.bit_count()
        for pos, h in enumerate(model_idx):
            a = (ext[h] & ~zs).bit_count()
            formula = Fraction(1 << a, 1 << outside_pc)
            empirical = (
                Fraction(counts[pos], total_parents) if total_parents else None
            )
            row = OptimalityRow(
                situations,
                decisions,
                lang.statements[h].members,
                weaknesses[pos],
                counts[pos],
                total_parents,
                formula,
                empirical,
            )
            rows_total += 1
            if len(rows) < max_rows:
                rows.append(row)
            if empirical is not None and empirical != formula:
                deviation_count += 1
        for pos, h in enumerate(model_idx):
            if weaknesses[pos] == w_max and counts[pos] < best:
                best_pos = counts.index(best)
                violations.append(
                    Violation(
                        situations,
                        decisions,
                        lang.statements[h].members,
                        counts[pos],
                        lang.statements[model_idx[best_pos]].members,
                        best,
                    )
                )

    for s_mask in range(1, full):
        zs = reach[s_mask]
        situations = tuple(s.members for s in lang.statements_of(s_mask))
        groups: dict[int, list[int]] = {}
        for h in range(n):
            d = zs & ext[h]
            if d:
                groups.setdefault(d, []).append(h)
        for d_mask, model_idx in groups.items():
            tasks_checked += 1
            sweep_task(situations, s_mask, zs, d_mask, model_idx)

    # extra tasks add rows but are not census tasks, so not tasks_checked
    for task in extra_tasks:
        model_idx = [lang.position(h) for h in task.models()]
        if not model_idx:
            continue
        s_mask = 0
        if all(s in lang for s in task.situations):
            s_mask = sum(1 << lang.position(s) for s in task.situations)
        situations = tuple(s.members for s in task.situations)
        sweep_task(situations, s_mask, task.reach, task.decided, model_idx)

    return OptimalityReport(
        census_size=total_census,
        tasks_checked=tasks_checked,
        rows_total=rows_total,
        rows=rows,
        violations=violations,
        deviation_count=deviation_count,
    )


# ---------------------------------------------------------------------------
# prior report


def prior_report(lang: Language, cap: int = PRIOR_REPORT_CAP) -> list[ExclusiveFamily]:
    """One exclusive-family sum per statement; totals recorded, never
    asserted equal to 1."""
    if lang.size > cap:
        raise CapacityError("prior report language size", cap)
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
        raise FixtureError(
            f"model set {got_models} != expected {expected_models}"
        )
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
    return DivergenceFixture(
        lang=lang,
        task=task,
        models=expected_models,
        weakness_winner=pair,
        mdl_winner=singleton,
        weakness_values=weak,
    )


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
    census fits ``census_cap``; oversized draws are skipped, up to 200 per
    language asked for."""
    rng = random.Random(f"weaklab-language-sample|{seed}|{n_states}")
    attempts_left = count * 200
    space = StateSpace(tuple(f"s{i}" for i in range(n_states)))
    out: list[Language] = []
    while len(out) < count:
        if attempts_left <= 0:
            raise CapacityError("language sampling attempts", len(out))
        attempts_left -= 1
        k = rng.randint(1, max_vocab)
        combo = sorted(rng.sample(range(1 << n_states), k))
        lang = Language.derive(space, _numbered_vocabulary(combo))
        try:
            census_size(lang, census_cap)
        except CapacityError:
            continue
        out.append(lang)
    return out
