"""Two-level cover search over small bit-string spaces (up to 8 variables).

States are integers whose bit j holds string position n-1-j (position 0 is
the leftmost character).  A cube is its (care, value) pair of ints: it
fixes the positions of the bits set in ``care`` to the bits of ``value``,
which lie within ``care``.  Its extent is the set of matching states,
packed as an int bitmask, and its literal count is care's bit count.  Its
text writes each position, leftmost first, as '-' (free), '0' or '1';
text order is the lexicographic order of those texts, with '-' < '0' < '1'.
Primes are found bit-parallel on one int with a bit per cube, indexed by
the cube's base-3 id, whose order is text order: validity and primality
each take one shift-and-mask step per variable.  One table per OFF set,
cached for the two searches of a trial, lists the primes with their
extents, literal counts and text ranks; every search reads it.

One branch-and-bound engine serves both proxies.  It branches on the
uncovered ON state with the fewest covering primes: child k takes that
state's k-th coverer and bans the earlier ones in its subtree, so each
selection lies in exactly one subtree.  Every node that covers ON, the
root of an empty ON included, takes one path: it is scored, then branched
the same way over the extra primes its proxy admits.  The exact integer
score is compared first; the tie-break key is built only when two scores
tie.  A greedy max-gain cover is the first incumbent, so a search that
runs out of nodes still returns a cover, flagged as unproven; it and the
coverers of each ON state are built once for the two searches of a trial.

* Description length: fewest total literals, then fewest terms, over the
  primes that meet ON, scored as one integer, literals * (m + 1) + terms
  for m primes.  No extras.  Bound: the cheapest literal count of each of
  a set of uncovered ON states no prime covers two of.
* Weakness: greatest log2(|union|) - tau * terms, then fewest literals,
  over all primes.  An extra is admitted only if it adds at least the
  least gain of the union's size u, the fewest new states g with
  (u + g)^den > u^den * 2^num for tau = num/den; least gains are kept in
  one module-level list per (n, tau), filled as searches ask.  Nothing is
  lost: j extras with gains g_i reach at most |U| + sum(g_i), and
  2^(tau*j) - 1 >= j * (2^tau - 1), so a set of extras that beats none
  holds a member that beats none alone.  Bound: at least as many more
  terms as the disjoint ON states, each term adding at most one of the
  largest marginal gains left, and no more than the cap, the union of
  every unbanned prime.  A node is pruned before any gain is counted when
  too few primes are left or when the cap, at the fewest terms, cannot
  reach the incumbent; otherwise the largest gains are popped lazily from
  a heap, widest primes first.  The cap is carried down the path: a node
  ORs the primes free outside its branching coverers once, and child k
  adds the coverers from k on.

Remaining ties go to the selection whose sorted cube texts come first in
text order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import accumulate, compress
from operator import or_

DEFAULT_NODE_BUDGET = 500_000


@lru_cache(maxsize=None)
def _subsets(n: int) -> tuple[int, ...]:
    # subsets[x] = mask of the states whose set bits all lie in x
    subsets = [1]
    for x in range(1, 1 << n):
        low = x & -x
        subsets.append(subsets[x ^ low] | subsets[x ^ low] << low)
    return tuple(subsets)


@lru_cache(maxsize=None)
def _id_tables(n: int):
    """Per-width tables of the prime kernel, which keeps one bit per cube id.

    A cube's id is sum_j d_j * 3^j, where d_j is 0, 1 or 2 as state bit j
    is '-', '0' or '1' in it.  Position 0 is the top digit, so ids ascend in
    text order.  The tables hold:

    * states: the mask of the one-state cubes' ids, and singles, per state
      the id of its own;
    * steps: per bit j, 3^j, 2 * 3^j and the ids whose digit j is 0, a
      block of 3^j ones repeated every 3^(j+1) bits;
    * care and value: the care and value masks of each id, value within
      care by construction.
    """
    size = 3**n
    every = (1 << size) - 1
    steps = []
    care, value, single = [0], [0], [0]  # by id, over the bits below j
    for j in range(n):
        p, b = 3**j, 1 << j
        steps.append((p, 2 * p, every // ((1 << 3 * p) - 1) * ((1 << p) - 1)))
        fixed = [c | b for c in care]
        care, value = care + fixed + fixed, value + value + [v | b for v in value]
        single += [s + p for s in single]
    singles = [size // 2 + s for s in single]  # size // 2 is the all-'0' id
    states = sum(map((1).__lshift__, singles))
    return states, tuple(singles), tuple(steps), tuple(care), tuple(value)


def prime_cubes(n: int, off: int) -> tuple[tuple[int, int], ...]:
    """The (care, value) pairs of the maximal cubes whose extent avoids
    ``off``, in text order.

    ``valid`` holds the ids of the cubes that avoid ``off`` (see _id_tables).
    It starts as the one-state cubes outside ``off``; then, bit by bit, a
    cube with a '-' at bit j is valid when both its halves, '0' and '1' at
    j, are.  A valid cube is prime unless some '-' widens it: the shifts
    of the valid cubes with a '-' at j onto their halves mark them.
    """
    valid, singles, steps, care, value = _id_tables(n)
    while off:
        state = off & -off
        valid ^= 1 << singles[state.bit_length() - 1]
        off ^= state
    for low, high, dash in steps:
        valid |= valid >> low & valid >> high & dash
    wider = 0
    for low, high, dash in steps:
        halved = valid & dash  # raised by 3^j or 2 * 3^j, a '-' digit turns
        wider |= halved << low | halved << high  # into '0' or '1', no carry
    # a half of a valid cube is valid, so the primes are valid ^ wider; read
    # from the right, their binary digits give them in ascending ids
    primes = bin(valid ^ wider)
    top = len(primes) - 1  # the index of id 0
    pairs, k = [], primes.rfind("1")
    while k >= 0:
        i = top - k
        pairs.append((care[i], value[i]))
        k = primes.rfind("1", 0, k)
    return tuple(pairs)


# only the two searches of a trial share a table: over the 1,200 criterion-8
# trials of each mode, one entry builds 1,200 tables and sixteen 1,196
@lru_cache(maxsize=1)
def _prime_table(n: int, off: int):
    """Every prime of ``off``, by literal count then text (equally: widest
    first), as parallel tuples of (care, value) pairs, extents, literal
    counts and text ranks.  Every key a search compares is built from
    these, so no cube is re-measured inside one."""
    primes = prime_cubes(n, off)
    lits = [care.bit_count() for care, _ in primes]
    ranks = tuple(sorted(range(len(primes)), key=lits.__getitem__))
    cubes = tuple(map(primes.__getitem__, ranks))
    # a cube matches value plus each state whose set bits all lie outside care
    subsets, full = _subsets(n), (1 << n) - 1
    extents = tuple(subsets[full ^ care] << value for care, value in cubes)
    return cubes, extents, tuple(map(lits.__getitem__, ranks)), ranks


@dataclass(frozen=True, slots=True)
class Cover:
    """A selection of cubes, their (care, value) pairs in text order, with
    its union extent and search provenance; ``cubes`` is None for a
    hypothesis given by its extent alone."""

    n: int
    cubes: tuple[tuple[int, int], ...] | None
    sat: int
    proven_optimal: bool
    nodes_used: int


def _greedy_cover(extents: list[int], target: int) -> list[int]:
    """Indices of a cover of ``target``: each step takes the first extent
    that covers the most still-uncovered states.  Gains only shrink as
    ``target`` does, so each extent keeps a bound on its gain, first its
    size: a step recounts only the extents whose bound beats the most
    found so far, and picks what a recount of every extent would pick: 47 µs
    per call against 70 µs over the 1,200 greedy covers of the state-mode grid."""
    bounds = [e.bit_count() for e in extents]
    chosen = []
    while target:
        most = 0
        for i, bound in enumerate(bounds):
            if bound > most:
                gain = bounds[i] = (extents[i] & target).bit_count()
                if gain > most:
                    most, pick = gain, i
        chosen.append(pick)
        target &= ~extents[pick]
    return chosen


# only the two searches of a trial share a setup: over the 1,200 criterion-8
# trials of each mode, four entries hit across trials once
@lru_cache(maxsize=1)
def _cover_setup(n: int, off: int, on: int):
    """What a search of ``on`` reads of ``_prime_table(n, off)`` before its
    first node: per ON state bit, the mask of its coverers, the lowest being
    its fewest-literal one, and their union; and a greedy cover of ``on``."""
    extents = _prime_table(n, off)[1]
    coverers: dict[int, int] = {}
    reach: dict[int, int] = {}
    for i, e in enumerate(extents):
        hit = e & on
        while hit:
            s = hit & -hit
            if s in coverers:
                coverers[s] |= 1 << i
                reach[s] |= e
            else:
                coverers[s], reach[s] = 1 << i, e
            hit ^= s
    return coverers, reach, tuple(_greedy_cover(extents, on))


def _search(
    n: int, on: int, off: int, budget: int, score, tie, extras, hopeless, capped: bool
) -> Cover:
    """Branch and bound over the selections of primes of ``off`` (indices
    into its ``_prime_table``) that cover ``on``; returns the selection with
    the least (score, tie) key.  Raises ValueError if ``on`` meets ``off``.

    ``cost``, the chosen primes' literal sum, is carried down each path.
    ``score(chosen, union, cost)`` is an integer compared first;
    ``tie(chosen, cost)`` orders selections of equal score and is built only
    for them.  ``extras(chosen, union, banned)`` lists the primes a node
    that covers ``on`` may add; every such node, the root included, is
    scored, then bounded and branched over its extras, if any.
    ``hopeless(chosen, union, cost, pool, size, need, reachable, best)``
    prunes a node whose subtree can neither beat nor tie the incumbent
    score ``best``.  At a node that covers ``on``, ``pool`` lists its
    ``size`` extras, ``need`` is empty and ``reachable`` is the union of
    ``union`` and the extras.  Elsewhere ``need`` holds the cheapest
    coverer of each of some uncovered ON states no prime covers two of, so
    any completion adds at least len(need) terms; if ``capped``, ``pool``
    iterates the ``size`` unbanned primes in table order and ``reachable``
    is the union of ``union`` and their extents, else all three are None.
    """
    if on & off:
        raise ValueError("ON and OFF sets intersect")
    primes, extents, lits, ranks = _prime_table(n, off)
    coverers, reach, seed = _cover_setup(n, off, on)
    m = len(extents)

    def union_of(chosen) -> int:
        union = 0
        for i in chosen:
            union |= extents[i]
        return union

    # the incumbent's score, selection, tie (built on demand) and cost
    seed_cost = sum(map(lits.__getitem__, seed))
    best = [score(seed, union_of(seed), seed_cost), seed, None, seed_cost]
    left = budget  # nodes; below zero once the budget is exhausted
    # if capped, free[i] is 1 while prime i is unbanned at the uncovered
    # node being expanded
    free = bytearray(b"\x01") * m if capped else None

    def consider(chosen, cost, sc):
        # a selection that covers on and scores sc <= the incumbent's
        if sc < best[0]:
            best[:] = sc, chosen, None, cost
            return
        t = tie(chosen, cost)
        if best[2] is None:
            best[2] = tie(best[1], best[3])
        if t < best[2]:
            best[:] = sc, chosen, t, cost

    def expand(chosen, cost, union, uncovered, banned, reachable):
        # a counted node: one that leaves some of on uncovered, or one that
        # covers on, scored here and then branched over its extras
        nonlocal left
        if uncovered:
            need = []
            rem = uncovered
            while rem:
                s = rem & -rem
                need.append(((c := coverers[s]) & -c).bit_length() - 1)
                rem &= ~reach[s]
            if capped:
                unbanned, size = compress(range(m), free), m - banned.bit_count()
            else:
                unbanned = size = None
            if hopeless(chosen, union, cost, unbanned, size, need, reachable, best[0]):
                return
            # branch on the uncovered state with the fewest unbanned coverers
            allowed, fewest = ~banned, None
            rem = uncovered
            while rem:
                s = rem & -rem
                c = coverers[s] & allowed
                count = c.bit_count()
                if not count:
                    return
                if fewest is None or count < fewest:
                    fewest, pick = count, c
                rem ^= s
            pool = []
            while pick:
                low = pick & -pick
                pool.append(low.bit_length() - 1)
                pick ^= low
        else:
            sc = score(chosen, union, cost)
            if sc <= best[0]:
                consider(chosen, cost, sc)
            pool = extras(chosen, union, banned)
            if not pool:
                return
            reachable = reduce(or_, map(extents.__getitem__, pool), union)
            if hopeless(chosen, union, cost, pool, len(pool), (), reachable, best[0]):
                return
        # child t takes pool[t] and bans pool[:t], so an uncovered child can
        # still reach the primes free outside the pool, found once, and
        # pool[t:]
        outside = None
        for t, i in enumerate(pool):
            left -= 1
            if left < 0:
                return
            e = extents[i]
            rest = uncovered & ~e
            if capped and rest:
                if outside is None:
                    for j in pool[t:]:
                        free[j] = 0
                    outside = reduce(or_, compress(extents, free), union)
                    for j in pool[t:]:
                        free[j] = 1
                    tails = list(accumulate(map(extents.__getitem__, pool[::-1]), or_))
                reachable = outside | tails[~t]
            expand(chosen + (i,), cost + lits[i], union | e, rest, banned, reachable)
            if left < 0:
                return
            banned |= 1 << i
            if capped and uncovered:
                free[i] = 0
        if capped and uncovered:
            for i in pool:
                free[i] = 1

    left -= 1
    if left >= 0:
        expand((), 0, 0, on, 0, reduce(or_, extents, 0) if capped else None)
    chosen = best[1]
    cubes = tuple(primes[i] for i in sorted(chosen, key=ranks.__getitem__))
    return Cover(n, cubes, union_of(chosen), left >= 0, budget - left)


def min_literal_cover(
    n: int, on: int, off: int, budget: int = DEFAULT_NODE_BUDGET
) -> Cover:
    """Exact minimum total-literal cover of ``on`` avoiding ``off``; states
    in neither set are don't-cares.  Ties broken by fewer terms, then by
    the sorted cubes' text order."""
    if on == 0:
        return Cover(n, (), 0, True, 0)
    # every prime, though only those that meet ON are ever chosen
    _, _, lits, ranks = _prime_table(n, off)
    weight = len(lits) + 1  # more than any term count

    def score(chosen, union, cost):
        return cost * weight + len(chosen)

    def tie(chosen, cost):
        return sorted(ranks[i] for i in chosen)

    def hopeless(chosen, union, cost, pool, size, need, reachable, best):
        return (cost + sum(map(lits.__getitem__, need))) * weight > best

    return _search(n, on, off, budget, score, tie, lambda *_: [], hopeless, False)


def _least_gain(n: int, num: int, den: int, u: int) -> int:
    """The fewest new states g that let one more term raise log2(u) - tau *
    terms (tau = num/den): the least g with (u + g)^den > u^den * 2^num, at
    most 2^n, found by bisection since the inequality is monotone in g."""
    bar = u**den << num
    return bisect_left(range(1, 1 << n), True, key=lambda g: (u + g) ** den > bar) + 1


# (n, tau numerator, tau denominator) -> slot u holds _least_gain of u (a call
# of 2-5 µs at width 8, a read of 0.05 µs), or None until a search asks for it
_LEAST_GAINS: dict[tuple[int, int, int], list[int | None]] = {}


def max_weakness_cover(
    n: int,
    on: int,
    off: int,
    tau: Fraction = Fraction(1),
    budget: int = DEFAULT_NODE_BUDGET,
) -> Cover:
    """Maximize log2(|union|) - tau*terms over prime-cube selections that
    cover ``on`` and avoid ``off``.

    Exact branch and bound; if the node budget runs out the incumbent (at
    worst the greedy seed) is returned with proven_optimal False.  Ties are
    broken by fewer literals, then the sorted cubes' text order.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    num, den = tau.numerator, tau.denominator
    # every prime, since an extra term may miss ON
    _, extents, _, ranks = _prime_table(n, off)
    m = len(extents)
    sizes = [e.bit_count() for e in extents]  # non-increasing
    gains = _LEAST_GAINS.get((n, num, den))
    if gains is None:
        gains = _LEAST_GAINS[n, num, den] = [None] * ((1 << n) + 1)

    def score(chosen, union, cost):
        # k terms over u states: -(2^(den * (log2(u) - tau * k)) * 2^(num * m)),
        # for k <= m an exact integer, least for the best selection
        return -(union.bit_count() ** den << num * (m - len(chosen)))

    def tie(chosen, cost):
        return cost, sorted(ranks[i] for i in chosen)

    def extras(chosen, union, banned):
        u = union.bit_count()
        g = gains[u]
        if g is None:
            g = gains[u] = _least_gain(n, num, den, u)
        missing = ~union
        admitted = []
        for i in range(m):
            if sizes[i] < g:
                break
            if not banned >> i & 1 and (extents[i] & missing).bit_count() >= g:
                admitted.append(i)
        return admitted

    def hopeless(chosen, union, cost, pool, size, need, reachable, best):
        # j more terms reach at most |union| plus the j largest marginal
        # gains, and never more than cap, the size of reachable
        k = len(chosen)
        j_min = max(1, len(need))
        j_max = min(size, m - k)
        if j_min > j_max:
            return True
        cap, target = reachable.bit_count(), -best
        if cap**den << num * (m - k - j_min) < target:
            return True
        # the gains in decreasing order, taken lazily: no gain exceeds its
        # prime's size, so a pending gain at least the size of the next
        # prime in the pool is the largest left
        pending: list[int] = []  # negated gains of the primes scanned, not yet taken
        pool = iter(pool)
        nxt = next(pool, None)
        missing = ~union
        u = union.bit_count()
        for j in range(1, j_max + 1):
            while nxt is not None and (not pending or -pending[0] < sizes[nxt]):
                heappush(pending, -(extents[nxt] & missing).bit_count())
                nxt = next(pool, None)
            u -= heappop(pending)
            if j < j_min:
                continue
            u = min(cap, u)
            if u**den << num * (m - k - j) >= target:
                return False
            if u == cap:
                break
        return True

    return _search(n, on, off, budget, score, tie, extras, hopeless, True)


def exact_cover_of(n: int, target: int) -> Cover:
    """Greedy prime cover whose union is exactly ``target`` (no don't-cares
    are available, so any prime selection stays inside the target)."""
    full = (1 << (1 << n)) - 1
    primes, extents, _, ranks = _prime_table(n, full & ~target)
    chosen = sorted(_greedy_cover(extents, target), key=ranks.__getitem__)
    return Cover(n, tuple(primes[i] for i in chosen), target, True, 0)
