"""Two-level cover search over small bit-string spaces (up to 8 variables).

States are integers whose bit j holds string position n-1-j (position 0 is
the leftmost character).  A cube fixes a subset of positions; its extent is
the set of matching states, packed as an int bitmask.  Primes are found
bit-parallel on one int with a bit per cube, indexed by the cube's base-3
id, whose order is the cubes' text order: validity and primality each take
one shift-and-mask step per variable.  One cached table per OFF set lists
the primes with their extents, literal counts and text ranks; every search
reads it.

One branch-and-bound engine serves both proxies.  It branches on the
uncovered ON state with the fewest covering primes: child k takes that
state's k-th coverer and bans the earlier ones in its subtree, so each
selection lies in exactly one subtree.  A node that covers ON is scored
in its parent's loop, then branched the same way over the extra primes
its proxy admits.  The exact integer score is compared first; the
tie-break key is built only when two scores tie.  A greedy max-gain cover
is the first incumbent, so a search that runs out of nodes still returns a
cover, flagged as unproven; it and the coverers of each ON state are built
once for the two searches of a trial.

* Description length: fewest total literals, then fewest terms, over the
  primes that meet ON.  No extras.  Bound: the cheapest literal count of
  each of a set of uncovered ON states no prime covers two of.
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

Remaining ties go to the lexicographically first cube texts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import accumulate, compress, repeat
from operator import or_

DEFAULT_NODE_BUDGET = 500_000


@dataclass(frozen=True, slots=True)
class Cube:
    """Conjunction of fixed bit positions over an n-bit string space."""

    n: int
    care: int
    value: int

    def __post_init__(self):
        if self.value & ~self.care:
            raise ValueError("value bits outside care mask")

    @property
    def literal_count(self) -> int:
        return self.care.bit_count()

    def text(self) -> str:
        """Positional rendering, leftmost position first ('1', '0' or '-')."""
        out = []
        for pos in range(self.n):
            j = self.n - 1 - pos
            if self.care >> j & 1:
                out.append("1" if self.value >> j & 1 else "0")
            else:
                out.append("-")
        return "".join(out)


# the slot setters of Cube, which bypass its frozen __setattr__
_SET_N, _SET_CARE, _SET_VALUE = Cube.n.__set__, Cube.care.__set__, Cube.value.__set__


@lru_cache(maxsize=None)
def _subsets(n: int) -> tuple[int, ...]:
    # subsets[x] = mask of the states whose set bits all lie in x
    subsets = [1]
    for x in range(1, 1 << n):
        low = x & -x
        subsets.append(subsets[x ^ low] | subsets[x ^ low] << low)
    return tuple(subsets)


def cube_extent(n: int, care: int, value: int) -> int:
    """Bitmask of the states matched by the cube (care, value): value plus
    each state whose set bits all lie outside ``care``."""
    return _subsets(n)[~care & (1 << n) - 1] << value


@lru_cache(maxsize=None)
def _id_tables(n: int):
    """Per-width tables of the prime kernel, which keeps one bit per cube id.

    A cube's id is sum_j d_j * 3^j, where d_j is 0, 1 or 2 as state bit j
    is '-', '0' or '1' in it.  Position 0 is the top digit, so ids ascend in
    Cube.text() order.  The tables hold:

    * states: the mask of the one-state cubes' ids, and singles, per state
      the id of its own;
    * steps: per bit j, 3^j, 2 * 3^j and the ids whose digit j is 0, a
      block of 3^j ones repeated every 3^(j+1) bits;
    * cubes: the cube of each id.
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
    # each value lies within its care mask by construction, so the cubes
    # are built without Cube's check and with no Python frame per cube
    cubes = list(map(object.__new__, repeat(Cube, size)))
    any(map(_SET_N, cubes, repeat(n)))  # each None
    any(map(_SET_CARE, cubes, care))
    any(map(_SET_VALUE, cubes, value))
    singles = [size // 2 + s for s in single]  # size // 2 is the all-'0' id
    states = sum(map((1).__lshift__, singles))
    return states, tuple(singles), tuple(steps), tuple(cubes)


def prime_cubes(n: int, off: int) -> tuple[Cube, ...]:
    """Maximal cubes whose extent avoids ``off``, in Cube.text() order.

    ``valid`` holds the ids of the cubes that avoid ``off`` (see _id_tables).
    It starts as the one-state cubes outside ``off``; then, bit by bit, a
    cube with a '-' at bit j is valid when both its halves, '0' and '1' at
    j, are.  A valid cube is prime unless some '-' widens it: the shifts
    of the valid cubes with a '-' at j onto their halves mark them.
    """
    valid, singles, steps, cubes = _id_tables(n)
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
    ids, k = [], primes.rfind("1")
    while k >= 0:
        ids.append(top - k)
        k = primes.rfind("1", 0, k)
    return tuple(map(cubes.__getitem__, ids))


# both sides of a trial ask for its child's table; other trials rarely
# share an OFF set, so a few entries catch nearly every repeat
@lru_cache(maxsize=16)
def _prime_table(n: int, off: int):
    """Every prime of ``off``, by literal count then text (equally: widest
    first), as parallel tuples of cubes, extents, literal counts and text
    ranks.  Every key a search compares is built from these, so no cube is
    rendered or re-measured inside one."""
    primes = prime_cubes(n, off)
    lits = [p.care.bit_count() for p in primes]
    ranks = tuple(sorted(range(len(primes)), key=lits.__getitem__))
    cubes = tuple(map(primes.__getitem__, ranks))
    subsets, full = _subsets(n), (1 << n) - 1  # as cube_extent, without a call per cube
    extents = tuple(subsets[full ^ p.care] << p.value for p in cubes)
    return cubes, extents, tuple(map(lits.__getitem__, ranks)), ranks


@dataclass(frozen=True, slots=True)
class Cover:
    """A selection of cubes with its union extent and search provenance."""

    n: int
    cubes: tuple[Cube, ...]
    sat: int
    proven_optimal: bool
    nodes_used: int

    @property
    def literal_count(self) -> int:
        return sum(c.literal_count for c in self.cubes)

    @property
    def term_count(self) -> int:
        return len(self.cubes)


def _greedy_cover(extents: list[int], target: int) -> list[int]:
    """Indices of a cover of ``target``: each step takes the first extent
    that covers the most still-uncovered states.  Gains only shrink as
    ``target`` does, so each extent keeps a bound on its gain, first its
    size: a step recounts only the extents whose bound beats the most
    found so far, and picks what a recount of every extent would pick."""
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


# the two searches of a trial run back to back on the same ON and OFF sets;
# a cleared _prime_table still reaches prime_cubes, as no table is kept here
@lru_cache(maxsize=4)
def _cover_setup(n: int, off: int, on: int):
    """What a search of ``on`` reads of ``_prime_table(n, off)`` before its
    first node: per ON state bit, the mask of its coverers, their union and
    its first (fewest-literal) coverer; and a greedy cover of ``on``."""
    extents = _prime_table(n, off)[1]
    coverers: dict[int, int] = {}
    reach: dict[int, int] = {}
    cheapest: dict[int, int] = {}
    for i, e in enumerate(extents):
        hit = e & on
        while hit:
            s = hit & -hit
            if s in coverers:
                coverers[s] |= 1 << i
                reach[s] |= e
            else:
                coverers[s], reach[s], cheapest[s] = 1 << i, e, i
            hit ^= s
    return coverers, reach, cheapest, tuple(_greedy_cover(extents, on))


def _search(
    n: int, on: int, off: int, budget: int, score, tie, extras, hopeless, capped: bool
) -> Cover:
    """Branch and bound over the selections of primes of ``off`` (indices
    into its ``_prime_table``) that cover ``on``; returns the selection with
    the least (score, tie) key.

    ``score(chosen, union)`` is an integer compared first; ``tie(chosen)``
    orders selections of equal score and is built only for them.
    ``extras(chosen, union, banned)`` lists the primes a node that covers
    ``on`` may add.  ``hopeless(chosen, union, pool, size, need, reachable,
    best)`` prunes a node whose subtree can neither beat nor tie the
    incumbent score ``best``.  At a node that covers ``on``, ``pool`` lists
    its ``size`` extras, ``need`` is empty and ``reachable`` is the union of
    ``union`` and the extras.  Elsewhere ``need`` holds the cheapest coverer
    of each of some uncovered ON states no prime covers two of, so any
    completion adds at least len(need) terms; if ``capped``, ``pool``
    iterates the ``size`` unbanned primes in table order and ``reachable``
    is the union of ``union`` and their extents, else all three are None.
    """
    primes, extents, _, ranks = _prime_table(n, off)
    coverers, reach, cheapest, seed = _cover_setup(n, off, on)
    m = len(extents)

    def union_of(chosen) -> int:
        union = 0
        for i in chosen:
            union |= extents[i]
        return union

    best = [score(seed, union_of(seed)), seed, None]  # the tie is built on demand
    left = budget  # nodes; below zero once the budget is exhausted
    # if capped, free[i] is 1 while prime i is unbanned at the uncovered
    # node being expanded
    free = bytearray(b"\x01") * m if capped else None

    def consider(chosen, sc):
        # a selection that covers on and scores sc <= the incumbent's
        if sc < best[0]:
            best[:] = sc, chosen, None
            return
        t = tie(chosen)
        if best[2] is None:
            best[2] = tie(best[1])
        if t < best[2]:
            best[:] = sc, chosen, t

    def expand(chosen, union, uncovered, banned, reachable, pool):
        # a counted node: one that leaves some of on uncovered, or one that
        # covers on and has extras ``pool``; children that cover on are
        # scored here and entered only to branch over their extras
        nonlocal left
        if uncovered:
            need = []
            rem = uncovered
            while rem:
                s = rem & -rem
                need.append(cheapest[s])
                rem &= ~reach[s]
            if capped:
                unbanned, size = compress(range(m), free), m - banned.bit_count()
            else:
                unbanned = size = None
            if hopeless(chosen, union, unbanned, size, need, reachable, best[0]):
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
        elif hopeless(chosen, union, pool, len(pool), (), reachable, best[0]):
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
            child, joined, rest = chosen + (i,), union | e, uncovered & ~e
            if rest:
                if capped and outside is None:
                    for j in pool[t:]:
                        free[j] = 0
                    outside = reduce(or_, compress(extents, free), union)
                    for j in pool[t:]:
                        free[j] = 1
                    tails = list(accumulate(map(extents.__getitem__, pool[::-1]), or_))
                reachable = outside | tails[~t] if capped else None
                expand(child, joined, rest, banned, reachable, None)
                if left < 0:
                    return
            else:
                sc = score(child, joined)
                if sc <= best[0]:
                    consider(child, sc)
                more = extras(child, joined, banned)
                if more:
                    reachable = reduce(or_, map(extents.__getitem__, more), joined)
                    expand(child, joined, 0, banned, reachable, more)
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
        if on:
            expand((), 0, on, 0, reduce(or_, extents, 0) if capped else None, None)
        else:  # the root covers on, as its children do
            sc = score((), 0)
            if sc <= best[0]:
                consider((), sc)
            more = extras((), 0, 0)
            if more:
                expand((), 0, 0, 0, reduce(or_, map(extents.__getitem__, more)), more)
    chosen = best[1]
    cubes = tuple(primes[i] for i in sorted(chosen, key=ranks.__getitem__))
    return Cover(n, cubes, union_of(chosen), left >= 0, budget - left)


def min_literal_cover(
    n: int, on: int, off: int, budget: int = DEFAULT_NODE_BUDGET
) -> Cover:
    """Exact minimum total-literal cover of ``on`` avoiding ``off``; states
    in neither set are don't-cares.  Ties broken by fewer terms, then by
    lexicographic cube order."""
    if on & off:
        raise ValueError("ON and OFF sets intersect")
    if on == 0:
        return Cover(n, (), 0, True, 0)
    # every prime, though only those that meet ON are ever chosen
    _, _, lits, ranks = _prime_table(n, off)

    def score(chosen, union):
        return sum(map(lits.__getitem__, chosen))

    def tie(chosen):
        return len(chosen), sorted(ranks[i] for i in chosen)

    def hopeless(chosen, union, pool, size, need, reachable, best):
        return score(chosen, union) + sum(map(lits.__getitem__, need)) > best

    return _search(n, on, off, budget, score, tie, lambda *_: [], hopeless, False)


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0 and k >= 1, by Newton's method from above."""
    if x < 2 or k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _least_gain(n: int, num: int, den: int, u: int) -> int:
    """The fewest new states g that let one more term raise log2(u) - tau *
    terms (tau = num/den): the least u + g with (u + g)^den > u^den * 2^num,
    at most 2^n."""
    return min(_iroot(u**den << num, den) + 1 - u, 1 << n)


# (n, tau numerator, tau denominator) -> slot u holds _least_gain of u, or
# None until a search asks for it
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
    broken by fewer literals, then lexicographic cube order.
    """
    if on & off:
        raise ValueError("ON and OFF sets intersect")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    num, den = tau.numerator, tau.denominator
    # every prime, since an extra term may miss ON
    _, extents, lits, ranks = _prime_table(n, off)
    m = len(extents)
    sizes = [e.bit_count() for e in extents]  # non-increasing
    gains = _LEAST_GAINS.get((n, num, den))
    if gains is None:
        gains = _LEAST_GAINS[n, num, den] = [None] * ((1 << n) + 1)

    def score(chosen, union):
        # k terms over u states: -(2^(den * (log2(u) - tau * k)) * 2^(num * m)),
        # for k <= m an exact integer, least for the best selection
        return -(union.bit_count() ** den << num * (m - len(chosen)))

    def tie(chosen):
        return sum(lits[i] for i in chosen), sorted(ranks[i] for i in chosen)

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

    def hopeless(chosen, union, pool, size, need, reachable, best):
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
    if target == 0:
        return Cover(n, (), 0, True, 0)
    full = (1 << (1 << n)) - 1
    primes, extents, _, ranks = _prime_table(n, full & ~target)
    chosen = sorted(_greedy_cover(extents, target), key=ranks.__getitem__)
    return Cover(n, tuple(primes[i] for i in chosen), target, True, 0)
