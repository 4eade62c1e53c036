"""Independent brute-force routes used only by tests.

Everything here is deliberately naive: plain set algebra, exhaustive
enumeration, and uniform-cost search.  None of it shares code with the
package's own algorithms; the task census only hands its naively
enumerated tasks to the public ``make_task`` for validation, and the
census walk starts from the public extension masks and yields the
package's ``CensusTask`` records so they compare field for field.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from weaklab import CapacityError, Language, Statement, VTask, make_task, oracle
from weaklab.lattice import EXPLICIT, row_members
from weaklab.oracle import CensusTask, OptimalityReport, Violation
from weaklab.specdsl import And, BitRef, Not


# ---------------------------------------------------------------------------
# naive lattice semantics over (truth_tables, statements-as-frozensets)


def naive_sat_states(truth: list[set[int]], stmt: frozenset[int], n_states: int) -> set[int]:
    states = set(range(n_states))
    for i in stmt:
        states &= truth[i]
    return states


def naive_language(truth: list[set[int]], n_states: int) -> list[frozenset[int]]:
    """All satisfiable predicate subsets, by brute subset enumeration."""
    out = []
    for r in range(len(truth) + 1):
        for combo in itertools.combinations(range(len(truth)), r):
            if naive_sat_states(truth, frozenset(combo), n_states):
                out.append(frozenset(combo))
    return out


def naive_derived_statements(tables: list[int], n_states: int) -> list[tuple[int, ...]]:
    """Every satisfiable predicate subset, as sorted index tuples in the
    global order (size, then tuple): the subsets of the predicates holding
    at one state, collected state by state."""
    found = set()
    for state in range(n_states):
        holding = [p for p, t in enumerate(tables) if t >> state & 1]
        for r in range(len(holding) + 1):
            found.update(itertools.combinations(holding, r))
    return sorted(found, key=lambda m: (len(m), m))


def naive_predicate_masks(statements: list[tuple[int, ...]], n_predicates: int) -> list[int]:
    """Per predicate, the positions of the statements holding it, bit by bit."""
    masks = [0] * n_predicates
    for i, members in enumerate(statements):
        for p in members:
            masks[p] |= 1 << i
    return masks


def naive_evaluate(e, width: int, state: int) -> bool:
    """Pointwise value of a spec formula at one state (bit position i,
    leftmost 0, is ``state >> (width-1-i) & 1``); the route the spec
    compiler's truth-table evaluation is checked against."""
    if isinstance(e, BitRef):
        return bool(state >> (width - 1 - e.index) & 1)
    if isinstance(e, Not):
        return not naive_evaluate(e.arg, width, state)
    if isinstance(e, And):
        return naive_evaluate(e.lhs, width, state) and naive_evaluate(e.rhs, width, state)
    return naive_evaluate(e.lhs, width, state) or naive_evaluate(e.rhs, width, state)


def naive_extension(universe: list[frozenset[int]], s: frozenset[int]) -> set[frozenset[int]]:
    return {t for t in universe if s <= t}


def naive_models(
    universe: list[frozenset[int]],
    situations: list[frozenset[int]],
    decisions: set[frozenset[int]],
) -> list[frozenset[int]]:
    reach = set()
    for s in situations:
        reach |= naive_extension(universe, s)
    return [
        h
        for h in universe
        if reach & naive_extension(universe, h) == decisions
    ]


def mutually_exclusive(lang: Language, a: Statement, b: Statement) -> bool:
    """True iff ``a`` and ``b`` are members of ``lang`` and neither is a
    subset of the other, so neither's extension contains the other; the
    reference for ``exclusive_family_sum``."""
    lang.position(a)
    lang.position(b)
    return not set(a) <= set(b) and not set(b) <= set(a)


def naive_census_count(universe: list[frozenset[int]]) -> int:
    """Number of (S, D) pairs with S a nonempty proper statement subset and
    D a nonempty subset of the union of extensions of S."""
    n = len(universe)
    count = 0
    for r in range(1, n):
        for sits in itertools.combinations(universe, r):
            reach = set()
            for s in sits:
                reach |= naive_extension(universe, s)
            count += (1 << len(reach)) - 1
    return count


@dataclass
class TaskCensus:
    """All tasks of a language with nonempty situations (a proper subset of
    the universe) and nonempty decision sets."""

    lang: Language
    tasks: tuple[VTask, ...]
    count: int


def enumerate_tasks(lang: Language, cap: int = 1_000_000) -> TaskCensus:
    """Materialize the census in deterministic order (situation sets by
    size then lexicographic position, decision sets likewise), each task
    built by the public make_task from naively computed reachable sets."""
    stmts = lang.statements
    universe = [frozenset(s.members) for s in stmts]
    tasks: list[VTask] = []
    for k in range(1, len(stmts)):
        for sit_idx in itertools.combinations(range(len(stmts)), k):
            reach = set()
            for i in sit_idx:
                reach |= naive_extension(universe, universe[i])
            reachable = [s for s, u in zip(stmts, universe) if u in reach]
            situations = [stmts[i] for i in sit_idx]
            for r in range(1, len(reachable) + 1):
                for decisions in itertools.combinations(reachable, r):
                    if len(tasks) >= cap:
                        raise CapacityError("task census", cap)
                    tasks.append(make_task(lang, situations, decisions))
    return TaskCensus(lang, tuple(tasks), len(tasks))


def walk_census_tasks(lang: Language) -> Iterator[CensusTask]:
    """The census-task records by walking every proper superset T of every
    situation set S, 3^n steps for n members; the reach table is ORed
    member by member from the public extension masks."""
    ext = lang.extension_masks()
    n = len(ext)
    full = (1 << n) - 1
    reach = [0] * full
    for mask in range(full):
        for i in range(n):
            if mask >> i & 1:
                reach[mask] |= ext[i]
    for s_mask in range(1, full):
        zs = reach[s_mask]
        groups: dict[int, list[int]] = {}
        for h in range(n):
            d = zs & ext[h]
            if d:
                groups.setdefault(d, []).append(h)
        comp = full & ~s_mask
        for d_mask, model_idx in groups.items():
            d_pc = d_mask.bit_count()
            counts = [0] * len(model_idx)
            total = 0
            # a parent's situation set adds a nonempty t to s_mask, short of full
            t = comp
            while t:
                big = s_mask | t
                if big != full:
                    zt = reach[big]
                    total += 1 << (zt.bit_count() - d_pc)
                    for pos, h in enumerate(model_idx):
                        if zt & ext[h] & d_mask == d_mask:
                            counts[pos] += 1
                t = (t - 1) & comp
            yield CensusTask(s_mask, d_mask, tuple(model_idx), tuple(counts), total)


def per_task_optimality(
    lang: Language, census_cap: float = oracle.DEFAULT_CENSUS_CAP
) -> OptimalityReport:
    """The weakness-optimality check one ``census_tasks`` record at a time:
    every model of every task takes the deviation test, and every task takes
    the violation test, whatever its number of models."""
    records = oracle.census_tasks(lang, census_cap)
    ext = lang.extension_masks()
    n = len(ext)
    reach = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | ext[low.bit_length() - 1]
    tables = tuple(p.truth for p in lang.vocab)
    universe = tuple(map(row_members, lang.rows)) if lang.mode == EXPLICIT else None
    rep = OptimalityReport(
        lang.space.size, tables, universe, oracle.census_size(lang, census_cap), 0, [], 0
    )
    weak = [e.bit_count() for e in ext]
    for task in records:
        rep.tasks_checked += 1
        zs = reach[task.situations]
        outside = n - zs.bit_count()
        total = task.total_parents
        counts = task.parent_counts
        w_max = max([weak[h] for h in task.models])
        best = max(counts)
        for h, count in zip(task.models, counts):
            # count / total != 2^a / 2^outside, in integers; a task without
            # parents has count = total = 0, so it never counts
            if count << outside != total << (ext[h] & ~zs).bit_count():
                rep.deviation_count += 1
            if count < best and weak[h] == w_max:
                best_h = task.models[counts.index(best)]
                rep.violations.append(
                    Violation(
                        tuple(s.members for s in lang.statements_of(task.situations)),
                        tuple(s.members for s in lang.statements_of(task.decisions)),
                        row_members(lang.rows[h]),
                        count,
                        row_members(lang.rows[best_h]),
                        best,
                    )
                )
    return rep


# ---------------------------------------------------------------------------
# arithmetic strings


def completions(pattern: int, pos: int, width: int) -> tuple[int, int]:
    """The two width-bit states whose ``pos``-deleted projection (position
    0 leftmost) is ``pattern``: the deleted bit put back as 0, then as 1."""
    text = format(pattern, f"0{width - 1}b")
    return tuple(int(text[:pos] + bit + text[pos:], 2) for bit in "01")


# ---------------------------------------------------------------------------
# minimum-literal covers by uniform-cost search over covered-state masks


def all_cubes_extents(n: int) -> list[tuple[int, int, int]]:
    """(literal_count, extent_mask, cube_id) for every cube over n bits."""
    out = []
    for care in range(1 << n):
        sub = care
        while True:
            ext = 0
            for state in range(1 << n):
                if state & care == sub:
                    ext |= 1 << state
            out.append((care.bit_count(), ext, (care << n) | sub))
            if sub == 0:
                break
            sub = (sub - 1) & care
    return out


def naive_cube_text(n: int, care: int, value: int) -> str:
    """Positional rendering, leftmost position (bit n-1) first."""
    return "".join(
        "01"[value >> j & 1] if care >> j & 1 else "-" for j in reversed(range(n))
    )


def naive_prime_cubes(n: int, off: int, cubes=None) -> list[tuple[int, int, int]]:
    """(care, value, extent_mask) of every cube that avoids ``off`` and stays
    invalid when any one literal is dropped, sorted by positional text;
    each cube is tested against the full 3^n table."""
    by_id = {
        cube_id: ext
        for _, ext, cube_id in (cubes if cubes is not None else all_cubes_extents(n))
    }
    valid = {cube_id for cube_id, ext in by_id.items() if ext & off == 0}
    low = (1 << n) - 1
    primes = []
    for cube_id in valid:
        care, value = cube_id >> n, cube_id & low
        wider = [
            (care & ~(1 << j)) << n | (value & ~(1 << j))
            for j in range(n)
            if care >> j & 1
        ]
        if not any(w in valid for w in wider):
            primes.append((care, value, by_id[cube_id]))
    return sorted(primes, key=lambda p: naive_cube_text(n, p[0], p[1]))


def min_literals_search(n: int, on: int, off: int, cubes=None) -> int | None:
    """Cheapest total literal count covering ``on`` while avoiding ``off``,
    by Dijkstra over covered-ON masks.  None if uncoverable."""
    if on == 0:
        return 0
    usable = [
        (cost, ext & on)
        for cost, ext, _ in (cubes if cubes is not None else all_cubes_extents(n))
        if ext & off == 0 and ext & on
    ]
    dist = {0: 0}
    pq = [(0, 0)]
    while pq:
        d, covered = heapq.heappop(pq)
        if covered == on:
            return d
        if d > dist.get(covered, 1 << 62):
            continue
        for cost, ext in usable:
            nxt = covered | ext
            nd = d + cost
            if nd < dist.get(nxt, 1 << 62):
                dist[nxt] = nd
                heapq.heappush(pq, (nd, nxt))
    return None


# ---------------------------------------------------------------------------
# the greedy seed and the least gain of the cover searches, recomputed in full


def first_max_greedy(extents: list[int], target: int) -> list[int]:
    """Indices of a cover of ``target``: each step recounts every extent and
    takes the first that covers the most still-uncovered states."""
    chosen = []
    while target:
        most = 0
        for i, e in enumerate(extents):
            gain = (e & target).bit_count()
            if gain > most:
                most, pick = gain, i
        chosen.append(pick)
        target &= ~extents[pick]
    return chosen


def score_cmp(
    u_a: int, k_a: int, u_b: int, k_b: int, tau_num: int, tau_den: int
) -> int:
    """Sign of (log2(u_a) - tau*k_a) - (log2(u_b) - tau*k_b), exactly, for
    u >= 0 and tau = tau_num/tau_den; two empty unions tie."""
    shift = tau_num * (k_b - k_a)
    lhs = u_a**tau_den << max(0, shift)
    rhs = u_b**tau_den << max(0, -shift)
    return (lhs > rhs) - (lhs < rhs)


def least_gain_search(n: int, u: int, tau: Fraction) -> int:
    """The fewest new states g, at most 2^n, that let one more term raise
    log2(u) - tau * terms from a union of u states, by binary search over g:
    log2(u + g) - tau > log2(u) exactly when (u + g)^den > u^den * 2^num for
    tau = num/den."""
    num, den = tau.numerator, tau.denominator
    lo, hi = 1, 1 << n
    while lo < hi:
        mid = (lo + hi) // 2
        if (u + mid) ** den > u**den * 2**num:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# wald interval recomputed from first principles


def wald_interval(successes: int, trials: int) -> float:
    p = successes / trials
    return 1.96 * (p * (1 - p) / trials) ** 0.5


def exact_mean(values: list[Fraction]) -> Fraction:
    return sum(values, Fraction(0)) / len(values)
