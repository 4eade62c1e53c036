"""Independent brute-force routes used only by tests.

Everything here is deliberately naive: plain set algebra, exhaustive
enumeration, and uniform-cost search.  None of it shares code with the
package's own algorithms; the task census only hands its naively
enumerated tasks to the public ``make_task`` for validation.  The census
task records (``CensusTask``) are built here twice, by one superset-sum
transform per situation set (``census_tasks``) and by a walk over every
superset (``walk_census_tasks``), both from the public extension masks; the
first is the per-situation route that ``oracle``'s per-reach sweep is
checked against, and it reads each multi-model task's parent counts through
``oracle._parent_counts``, so a test that replaces that count changes both.
``deviation_count`` compares those counts with the formula value of
``induction.generalisation_probability``; the sweep itself keeps one measure.
``census_size`` counts a census under a task cap, refusing before its 2^n
reach table where a lower bound already passes the cap, so that tests can
filter random languages of up to 32 members by census size.  The reach
tables, superset sums and census sizes here are built one mask at a time;
they are what ``oracle``'s whole-list census kernels are checked against.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from weaklab import (
    CapacityError, Language, MembershipError, Predicate, Statement, StateSpace, VTask,
    Vocabulary, make_task, oracle,
)
from weaklab.arith import BinOpTask
from weaklab.lattice import row_members
from weaklab.oracle import OptimalityReport, Violation
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


def state_row_key(tables: tuple[int, ...], n_states: int) -> tuple[int, frozenset[int]]:
    """The predicate count and the set of state rows, a state row being the
    int with bit p set where predicate p holds at that state."""
    rows = {sum(1 << p for p, t in enumerate(tables) if t >> state & 1)
            for state in range(n_states)}
    return len(tables), frozenset(rows)


def sampler_draws(n_states: int, count: int, seed, max_vocab: int = 4,
                  max_members: int = oracle.DEFAULT_MAX_MEMBERS) -> list[tuple[tuple, bool]]:
    """Every draw of ``oracle.sample_derived_languages`` as (tables, kept), by
    its random stream, each draw derived in full and kept by its size."""
    rng = random.Random(f"weaklab-language-sample|{seed}|{n_states}")
    space = StateSpace(tuple(f"s{i}" for i in range(n_states)))
    draws, kept = [], 0
    while kept < count:
        k = rng.randint(1, min(max_vocab, 1 << n_states))
        tables = tuple(sorted(rng.sample(range(1 << n_states), k)))
        vocab = Vocabulary(tuple(Predicate(f"p{i}", t) for i, t in enumerate(tables)))
        draws.append((tables, Language.derive(space, vocab).size <= max_members))
        kept += draws[-1][1]
    return draws


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


def extension(lang: Language, s: Statement) -> tuple[Statement, ...]:
    """All members of ``lang`` containing the member statement ``s`` (itself
    included), read from its extension mask."""
    if s not in lang:
        raise MembershipError(f"statement {s!r} is not in the language")
    return lang.statements_of(lang.extension_mask(s))


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


CENSUS_CAP = 1_000_000


def census_size(lang: Language, cap: float = CENSUS_CAP) -> int:
    """Exact census cardinality, without materializing tasks; raises
    CapacityError as soon as the running total exceeds ``cap``, and before
    the 2^n reach table for n members when a lower bound already does."""
    return masks_census_size(lang.extension_masks(), cap)


def masks_census_size(ext: list[int], cap: float = CENSUS_CAP) -> int:
    """``census_size`` over the member extension masks ``ext``."""
    n = len(ext)
    # Every census situation set contributes at least 2^|S| - 1 decision
    # sets, so 3^n - 2^(n+1) + 1 is a cheap lower bound on the census.
    if n > 1 and 3**n - (1 << (n + 1)) + 1 > cap:
        raise CapacityError("task census", cap)
    full = (1 << n) - 1
    reach = [0] * full
    total = 0
    for mask in range(1, full):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | ext[low.bit_length() - 1]
        total += (1 << reach[mask].bit_count()) - 1
        if total > cap:
            raise CapacityError("task census", cap)
    return total


@dataclass
class TaskCensus:
    """All tasks of a language with nonempty situations (a proper subset of
    the universe) and nonempty decision sets."""

    lang: Language
    tasks: tuple[VTask, ...]
    count: int


def enumerate_tasks(lang: Language, cap: int = CENSUS_CAP) -> TaskCensus:
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


@dataclass(frozen=True)
class CensusTask:
    """One census task with models, as position masks and counts."""

    situations: int
    decisions: int
    models: tuple[int, ...]  # positions, in global order
    parent_counts: tuple[int, ...]  # census parents each model is a model of
    total_parents: int


def census_tasks(
    lang: Language, census_cap: float = CENSUS_CAP
) -> Iterator[CensusTask]:
    """Every census task with models and its parent counts, situation masks up, then
    decision sets by first model; raises CapacityError at the call, not at ``next``.

    A parent of (S, D) has a situation set T ⊋ S short of the full mask and
    decisions D ⊆ D' ⊆ Z_T, so ``total_parents`` sums 2^(|Z_T| - |D|) over those
    T.  The superset sums g[m] of 2^|Z_T| over T ⊇ m short of full, n passes of
    2^n additions, give it as (g[S] - 2^|Z_S|) >> |D|.  A model h is a model of
    the one parent with D' = Z_T ∩ Z_h per T (D ⊆ Z_S ⊆ Z_T and D ⊆ Z_h), so
    each ``parent_counts`` entry is 2^(n-|S|) - 2.
    """
    census_size(lang, census_cap)
    return _census_tasks(lang.extension_masks())


def _census_tasks(ext: list[int]) -> Iterator[CensusTask]:
    for s_mask, _, sets, above, groups, multi in _census_by_situations(ext):
        for d, models in groups.items():
            counts = multi.get(d, (sets,))
            yield CensusTask(s_mask, d, tuple(models), counts, above >> d.bit_count())


def _census_by_situations(ext: list[int]) -> Iterator[tuple]:
    """Per situation mask S: S, Z_S, its parent count 2^(n-|S|) - 2, the sum
    above S, {D: models} by first model, {D: parent counts} if 2+ models."""
    n = len(ext)
    full = (1 << n) - 1
    reach = [0] * full
    for mask in range(1, full):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | ext[low.bit_length() - 1]
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
        for h, e in enumerate(ext):
            if d := zs & e:
                groups.setdefault(d, []).append(h)
        multi = {d: tuple(col[0] for col in oracle._parent_counts([s_mask], d, models, n))
                 for d, models in groups.items() if len(models) > 1}
        yield s_mask, zs, count, g[s_mask] - (1 << zs.bit_count()), groups, multi


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
    lang: Language, census_cap: float = CENSUS_CAP
) -> OptimalityReport:
    """The weakness-optimality check one ``census_tasks`` record at a time:
    every task takes the violation test, whatever its number of models."""
    records = census_tasks(lang, census_cap)
    rep = OptimalityReport(census_size(lang, census_cap), 0, [])
    weak = [e.bit_count() for e in lang.extension_masks()]
    for task in records:
        rep.tasks_checked += 1
        counts = task.parent_counts
        w_max = max([weak[h] for h in task.models])
        best = max(counts)
        for h, count in zip(task.models, counts):
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


def deviation_count(lang: Language, census_cap: float = CENSUS_CAP) -> int:
    """The (task, model) pairs of the census whose parent fraction count / total
    differs from the formula value 2^|Z̄_S ∩ Z_h| / 2^|Z̄_S|, the complement Z̄_S
    taken over the n members; the formula counts decision subsets where the
    census counts concrete tasks.  A task without parents has count = total =
    0, so it never counts."""
    ext = lang.extension_masks()
    n, deviations = len(ext), 0
    for task in census_tasks(lang, census_cap):
        zs = 0
        for i in range(n):
            if task.situations >> i & 1:
                zs |= ext[i]
        outside = n - zs.bit_count()
        for h, count in zip(task.models, task.parent_counts):
            # count / total != 2^a / 2^outside, in integers
            if count << outside != task.total_parents << (ext[h] & ~zs).bit_count():
                deviations += 1
    return deviations


# ---------------------------------------------------------------------------
# arithmetic strings


def completions(pattern: int, pos: int, width: int) -> tuple[int, int]:
    """The two width-bit states whose ``pos``-deleted projection (position
    0 leftmost) is ``pattern``: the deleted bit put back as 0, then as 1."""
    text = format(pattern, f"0{width - 1}b")
    return tuple(int(text[:pos] + bit + text[pos:], 2) for bit in "01")


def operand_swap_state(state: int) -> int:
    """The width-8 string a1 a0 b1 b0 o3 o2 o1 o0 with its operands swapped:
    positions 0 and 2, and 1 and 3, trade places; the output bits stay."""
    text = format(state, "08b")
    return int(text[2:4] + text[:2] + text[4:], 2)


def operand_swap(child: BinOpTask) -> BinOpTask:
    """The width-8 child of the swapped operand order: every decision
    swapped, and the deleted bit mapped as its position is (0 and 2, 1 and
    3).  For a commutative op it is a child of the same parent task."""
    assert child.width == 8
    bit = {0: 2, 1: 3, 2: 0, 3: 1}.get(child.deleted_bit, child.deleted_bit)
    decisions = tuple(sorted(map(operand_swap_state, child.decisions)))
    return BinOpTask.of(child.op, child.width, bit, decisions)


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


def literal_count(cover) -> int:
    """Literals of a cover's cubes: the care bits of every (care, value) pair."""
    return sum(care.bit_count() for care, _ in cover.cubes)


def term_count(cover) -> int:
    """Cubes of a cover."""
    return len(cover.cubes)


def cube_extent(n: int, care: int, value: int) -> int:
    """Bitmask of the states matched by the cube (care, value), by a scan
    of every state."""
    return sum(1 << state for state in range(1 << n) if state & care == value)


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
