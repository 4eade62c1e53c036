"""Two-level cover search over small bit-string spaces (up to 8 variables).

States are integers whose bit j holds string position n-1-j (position 0 is
the leftmost character).  A cube fixes a subset of positions; its extent is
the set of matching states, packed as an int bitmask.  Primes are found
bit-parallel: one state mask per care mask (2^n of them) marks the cubes
with that care set that avoid OFF, each derived from a wider care mask by
one shift-and-mask step.

One branch-and-bound engine serves both proxies.  It branches on the
uncovered ON state with the fewest covering primes: child k takes that
state's k-th coverer and bans the earlier ones in its subtree, so each
selection lies in exactly one subtree.  A node that covers ON is scored,
then branched the same way over the extra primes its proxy admits.  A
greedy max-gain cover is the first incumbent, so a search that runs out of
nodes still returns a cover, flagged as unproven.

* Description length: fewest total literals, then fewest terms, over the
  primes that meet ON.  No extras.  Bound: the cheapest literal count of
  each of a set of uncovered ON states no prime covers two of.
* Weakness: greatest log2(|union|) - tau * terms, then fewest literals,
  over all primes.  An extra is admitted only if it raises the score on
  its own.  Nothing is lost: j extras with gains g_i reach at most
  |U| + sum(g_i), and 2^(tau*j) - 1 >= j * (2^tau - 1), so a set of extras
  that beats none holds a member that beats none alone.  Bound: at least
  as many more terms as the disjoint ON states, each term adding at most
  one of the largest marginal gains left.

Remaining ties go to the lexicographically first cube texts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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

    @property
    def extent(self) -> int:
        return cube_extent(self.n, self.care, self.value)

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


@lru_cache(maxsize=None)
def _bit_planes(n: int) -> tuple[tuple[int, int], ...]:
    # plane[j] = (mask of states with bit j == 0, with bit j == 1)
    planes = []
    full = (1 << (1 << n)) - 1
    for j in range(n):
        ones = 0
        for state in range(1 << n):
            if state >> j & 1:
                ones |= 1 << state
        planes.append((full & ~ones, ones))
    return tuple(planes)


@lru_cache(maxsize=None)
def cube_extent(n: int, care: int, value: int) -> int:
    """Bitmask of the states matched by the cube (care, value)."""
    ext = (1 << (1 << n)) - 1
    planes = _bit_planes(n)
    for j in range(n):
        if care >> j & 1:
            ext &= planes[j][value >> j & 1]
    return ext


@lru_cache(maxsize=None)
def _care_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # subsets[x] = mask of the states whose set bits all lie in x;
    # weights[x] = x's binary digits read in base 3, so weights[care] +
    # weights[value] orders cubes as Cube.text() does ('-' < '0' < '1')
    subsets = [1]
    for x in range(1, 1 << n):
        low = x & -x
        subsets.append(subsets[x ^ low] | subsets[x ^ low] << low)
    return tuple(subsets), tuple(int(format(x, "b"), 3) for x in range(1 << n))


# both sides of a trial ask for its child's primes; other trials rarely
# share an OFF set, so a few entries catch nearly every repeat
@lru_cache(maxsize=16)
def prime_cubes(n: int, off: int) -> tuple[Cube, ...]:
    """Maximal cubes whose extent avoids ``off``, in Cube.text() order.

    valid[c] holds the states s whose cube (c, s & c) avoids ``off``; it is
    built from the full care mask down, dropping one care bit j at a time:
    s stays valid when both s and s with bit j flipped were.  A cube is
    prime when no single care bit can be dropped.
    """
    care_all = (1 << n) - 1
    planes = _bit_planes(n)
    valid = [0] * (care_all + 1)
    valid[care_all] = (1 << (1 << n)) - 1 & ~off
    for care in range(care_all - 1, -1, -1):
        free = ~care & care_all
        bit = free & -free
        zeros, ones = planes[bit.bit_length() - 1]
        wider = valid[care | bit]
        valid[care] = wider & ((wider & ones) >> bit | (wider & zeros) << bit)
    subsets, weights = _care_tables(n)
    found = []
    for care in range(care_all + 1):
        primes = valid[care] & subsets[care]
        j = care
        while primes and j:
            bit = j & -j
            primes &= ~valid[care ^ bit]
            j ^= bit
        while primes:
            low = primes & -primes
            found.append((care, low.bit_length() - 1))
            primes ^= low
    found.sort(key=lambda cv: weights[cv[0]] + weights[cv[1]])
    return tuple(Cube(n, care, value) for care, value in found)


def _prime_table(n: int, off: int, on: int = -1):
    """The primes of ``off`` whose extent meets ``on``, by literal count then
    text (equally: widest first), as parallel lists of cubes, extents,
    literal counts and text ranks.  Every key a search compares is built
    from these lists, so no cube is rendered or re-measured inside one."""
    primes = prime_cubes(n, off)
    ranks = sorted(
        (r for r, p in enumerate(primes) if p.extent & on),
        key=lambda r: primes[r].literal_count,
    )
    cubes = [primes[r] for r in ranks]
    return cubes, [p.extent for p in cubes], [p.literal_count for p in cubes], ranks


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
    that covers the most still-uncovered states."""
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


def _search(n: int, table, on: int, budget: int, key, extras, hopeless) -> Cover:
    """Branch and bound over the selections of ``table`` primes that cover
    ``on``; returns the selection with the least ``key(chosen, union)``.

    ``extras(chosen, union, banned)`` lists the primes a node that covers
    ``on`` may add.  ``hopeless(chosen, union, banned, pool, need, best)``
    prunes a node whose subtree can neither beat nor tie the incumbent key
    ``best``.  At a node that covers ``on``, ``pool`` lists its extras and
    ``need`` is empty; elsewhere ``pool`` is empty and ``need`` holds the
    cheapest coverer of each of some uncovered ON states no prime covers
    two of, so any completion adds at least len(need) terms.
    """
    primes, extents, _, ranks = table
    coverers: dict[int, int] = {}  # ON state bit -> mask of prime indices
    cheapest: dict[int, int] = {}  # ON state bit -> first (fewest literals)
    reach: dict[int, int] = {}  # ON state bit -> union of its coverers
    rem = on
    while rem:
        s = rem & -rem
        mask = union = 0
        for i, e in enumerate(extents):
            if e & s:
                mask |= 1 << i
                union |= e
        coverers[s], reach[s] = mask, union
        cheapest[s] = (mask & -mask).bit_length() - 1
        rem ^= s

    def union_of(chosen) -> int:
        union = 0
        for i in chosen:
            union |= extents[i]
        return union

    seed = tuple(_greedy_cover(extents, on))
    best = [key(seed, union_of(seed)), seed]
    left = budget  # nodes; below zero once the budget is exhausted

    def dfs(chosen: tuple[int, ...], union: int, uncovered: int, banned: int):
        nonlocal left
        left -= 1
        if left < 0:
            return
        need = []
        if uncovered:
            pool = []
            rem = uncovered
            while rem:
                s = rem & -rem
                need.append(cheapest[s])
                rem &= ~reach[s]
        else:
            k = key(chosen, union)
            if k < best[0]:
                best[:] = k, chosen
            pool = extras(chosen, union, banned)
            if not pool:
                return
        if hopeless(chosen, union, banned, pool, need, best[0]):
            return
        if uncovered:
            # branch on the uncovered state with the fewest unbanned coverers
            allowed, fewest = ~banned, None
            rem = uncovered
            while rem:
                s = rem & -rem
                free = coverers[s] & allowed
                count = free.bit_count()
                if not count:
                    return
                if fewest is None or count < fewest:
                    fewest, pick = count, free
                rem ^= s
            while pick:
                low = pick & -pick
                pool.append(low.bit_length() - 1)
                pick ^= low
        for i in pool:
            dfs(chosen + (i,), union | extents[i], uncovered & ~extents[i], banned)
            banned |= 1 << i
            if left < 0:
                return

    dfs((), 0, on, 0)
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
    table = _prime_table(n, off, on)
    _, _, lits, ranks = table

    def key(chosen, union):
        return (
            sum(lits[i] for i in chosen),
            len(chosen),
            sorted(ranks[i] for i in chosen),
        )

    def hopeless(chosen, union, banned, pool, need, best):
        return sum(lits[i] for i in chosen) + sum(lits[i] for i in need) > best[0]

    return _search(n, table, on, budget, key, lambda *_: [], hopeless)


def _score_cmp(
    u_a: int, k_a: int, u_b: int, k_b: int, tau_num: int, tau_den: int
) -> int:
    # sign of (log2(u_a) - tau*k_a) - (log2(u_b) - tau*k_b), exactly, for
    # u >= 0 and tau = tau_num/tau_den; two empty unions tie
    shift = tau_num * (k_b - k_a)
    lhs = u_a**tau_den << max(0, shift)
    rhs = u_b**tau_den << max(0, -shift)
    return (lhs > rhs) - (lhs < rhs)


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
    table = _prime_table(n, off)
    _, extents, lits, ranks = table
    m = len(extents)
    sizes = [e.bit_count() for e in extents]  # non-increasing

    def value(u: int, k: int) -> int:
        # 2^(den * score) * 2^(num * m), for k <= m: an exact integer that
        # orders selections as their scores do
        return u**den << num * (m - k)

    @lru_cache(maxsize=None)
    def least_gain(u: int) -> int:
        # the fewest new states that let one more term raise the score from
        # a union of u states; the sign of _score_cmp(u + g, k + 1, u, k)
        # does not depend on k
        lo, hi = 1, 1 << n
        while lo < hi:
            mid = (lo + hi) // 2
            if _score_cmp(u + mid, 1, u, 0, num, den) > 0:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def key(chosen, union):
        return (
            -value(union.bit_count(), len(chosen)),
            sum(lits[i] for i in chosen),
            sorted(ranks[i] for i in chosen),
        )

    def extras(chosen, union, banned):
        g = least_gain(union.bit_count())
        admitted = []
        for i in range(m):
            if sizes[i] < g:
                break
            if not banned >> i & 1 and (extents[i] & ~union).bit_count() >= g:
                admitted.append(i)
        return admitted

    def hopeless(chosen, union, banned, pool, need, best):
        # j more terms reach at most |union| plus the j largest marginal
        # gains, and never more than the union of every prime left
        if need:
            pool = [i for i in range(m) if not banned >> i & 1]
        reachable = union
        gains = []
        for i in pool:
            reachable |= extents[i]
            gains.append((extents[i] & ~union).bit_count())
        gains.sort(reverse=True)
        cap, k = reachable.bit_count(), len(chosen)
        j_min = max(1, len(need))
        u = union.bit_count() + sum(gains[: j_min - 1])
        for j in range(j_min, min(len(gains), m - k) + 1):
            u = min(cap, u + gains[j - 1])
            if value(u, k + j) >= -best[0]:
                return False
            if u == cap:
                break
        return True

    return _search(n, table, on, budget, key, extras, hopeless)


def exact_cover_of(n: int, target: int) -> Cover:
    """Greedy prime cover whose union is exactly ``target`` (no don't-cares
    are available, so any prime selection stays inside the target)."""
    if target == 0:
        return Cover(n, (), 0, True, 0)
    full = (1 << (1 << n)) - 1
    primes, extents, _, ranks = _prime_table(n, full & ~target)
    chosen = sorted(_greedy_cover(extents, target), key=ranks.__getitem__)
    return Cover(n, tuple(primes[i] for i in chosen), target, True, 0)
