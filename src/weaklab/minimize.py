"""Two-level cover search over small bit-string spaces (up to 8 variables).

States are integers whose bit j holds string position n-1-j (position 0 is
the leftmost character).  A cube fixes a subset of positions; its extent is
the set of matching states, packed as an int bitmask.  Primes are found
bit-parallel: one state mask per care mask (2^n of them) marks the cubes
with that care set that avoid OFF, each derived from a wider care mask by
one shift-and-mask step, with up to eight care masks packed into one int.
One cached table per OFF set lists the primes with their extents, literal
counts and text ranks; every search reads it.

One branch-and-bound engine serves both proxies.  It branches on the
uncovered ON state with the fewest covering primes: child k takes that
state's k-th coverer and bans the earlier ones in its subtree, so each
selection lies in exactly one subtree.  A node that covers ON is scored,
then branched the same way over the extra primes its proxy admits.  The
exact integer score is compared first; the tie-break key is built only
when two scores tie.  A greedy max-gain cover is the first incumbent, so a
search that runs out of nodes still returns a cover, flagged as unproven.

* Description length: fewest total literals, then fewest terms, over the
  primes that meet ON.  No extras.  Bound: the cheapest literal count of
  each of a set of uncovered ON states no prime covers two of.
* Weakness: greatest log2(|union|) - tau * terms, then fewest literals,
  over all primes.  An extra is admitted only if it raises the score on
  its own.  Nothing is lost: j extras with gains g_i reach at most
  |U| + sum(g_i), and 2^(tau*j) - 1 >= j * (2^tau - 1), so a set of extras
  that beats none holds a member that beats none alone.  Bound: at least
  as many more terms as the disjoint ON states, each term adding at most
  one of the largest marginal gains left.  A node is pruned before any
  gain is counted when too few primes are left or when the union of all
  of them, at the fewest terms, cannot reach the incumbent; otherwise the
  largest gains are selected lazily, widest primes first, and never
  sorted in full.

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
def _care_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # subsets[x] = mask of the states whose set bits all lie in x;
    # weights[x] = x's binary digits read in base 3, so weights[care] +
    # weights[value] orders cubes as Cube.text() does ('-' < '0' < '1')
    subsets = [1]
    for x in range(1, 1 << n):
        low = x & -x
        subsets.append(subsets[x ^ low] | subsets[x ^ low] << low)
    return tuple(subsets), tuple(int(format(x, "b"), 3) for x in range(1 << n))


def cube_extent(n: int, care: int, value: int) -> int:
    """Bitmask of the states matched by the cube (care, value): value plus
    each state whose set bits all lie outside ``care``."""
    return _care_tables(n)[0][~care & (1 << n) - 1] << value


# the prime kernel packs the 2^_PACKED care masks that differ only in
# their top _PACKED bits into one int, so one step serves all of them
_PACKED = 3


@lru_cache(maxsize=None)
def _kernel_tables(n: int):
    """Per-width tables of the prime kernel.

    The top h = min(n, _PACKED) bits of a care mask are its hi part, the
    other n - h its lo part.  A packed int holds one block of 2^n state
    bits per hi, block hi standing for the care mask (hi, lo).

    * smear: per hi bit t, its state bit, and the (ones, zeros) planes of
      that state bit in the blocks whose hi lacks t;
    * steps: (lo, lo | b, b, ones, zeros) from the full lo down, b the
      lowest bit outside lo, with b's planes in every block;
    * drops[lo]: lo ^ b for each bit b of lo;
    * widen: per hi bit t, the shift that moves block hi ^ t onto block
      hi, and the blocks whose hi has t;
    * subsets[lo]: block hi holds the states whose set bits all lie in
      the care mask (hi, lo).
    """
    h = min(n, _PACKED)
    low_bits = n - h
    width = 1 << n  # bits per block
    block = (1 << width) - 1
    every = sum(1 << width * hi for hi in range(1 << h))
    planes = _bit_planes(n)

    def blocks(t, has):
        return sum(block << width * hi for hi in range(1 << h) if (hi >> t & 1) == has)

    smear = []
    for t in range(h):
        zeros, ones = planes[low_bits + t]
        lacking = blocks(t, 0)
        smear.append(
            (1 << low_bits + t, ones * every & lacking, zeros * every & lacking)
        )
    lo_all = (1 << low_bits) - 1
    steps = []
    for lo in range(lo_all - 1, -1, -1):
        free = ~lo & lo_all
        b = free & -free
        zeros, ones = planes[b.bit_length() - 1]
        steps.append((lo, lo | b, b, ones * every, zeros * every))
    drops = [
        tuple(lo ^ 1 << j for j in range(low_bits) if lo >> j & 1)
        for lo in range(lo_all + 1)
    ]
    widen = [(width << t, blocks(t, 1)) for t in range(h)]
    care_subsets = _care_tables(n)[0]
    subsets = [
        sum(care_subsets[hi << low_bits | lo] << width * hi for hi in range(1 << h))
        for lo in range(lo_all + 1)
    ]
    return (
        h, every, tuple(smear), tuple(steps), tuple(drops), tuple(widen), tuple(subsets)
    )


def prime_cubes(n: int, off: int) -> tuple[Cube, ...]:
    """Maximal cubes whose extent avoids ``off``, in Cube.text() order.

    valid[c] holds the states s whose cube (c, s & c) avoids ``off``; the
    list below packs it by lo part (see _kernel_tables).  Where c holds
    every lo bit, valid[c] is the complement of ``off`` spread over the hi
    bits c lacks.  From there down, c drops one lo bit b at a time: s stays
    valid when both s and s with bit b flipped were.  A cube is prime when
    no single care bit, lo or hi, can be dropped.
    """
    h, every, smear, steps, drops, widen, subsets = _kernel_tables(n)
    low_bits = n - h
    spread = off * every
    for bit, ones, zeros in smear:
        spread |= (spread & ones) >> bit | (spread & zeros) << bit
    valid = [0] * (1 << low_bits)
    valid[-1] = (1 << (1 << n + h)) - 1 & ~spread
    for lo, wider_lo, bit, ones, zeros in steps:
        wider = valid[wider_lo]
        valid[lo] = wider & ((wider & ones) >> bit | (wider & zeros) << bit)
    state_mask = (1 << n) - 1
    weights = _care_tables(n)[1]
    found = []
    for lo, (here, narrower_los, subset) in enumerate(zip(valid, drops, subsets)):
        primes = here & subset
        for narrower in narrower_los:
            if not primes:
                break
            primes &= ~valid[narrower]
        for shift, having in widen:
            primes &= ~(here << shift & having)
        while primes:
            low = primes & -primes
            k = low.bit_length() - 1
            care, value = k >> n << low_bits | lo, k & state_mask
            found.append((weights[care] + weights[value], care, value))
            primes ^= low
    found.sort()
    return tuple(Cube(n, care, value) for _, care, value in found)


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
    cubes = tuple(primes[r] for r in ranks)
    extents = tuple(cube_extent(n, p.care, p.value) for p in cubes)
    return cubes, extents, tuple(lits[r] for r in ranks), ranks


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


def _search(
    n: int, table, on: int, budget: int, score, tie, extras, hopeless
) -> Cover:
    """Branch and bound over the selections of ``table`` primes that cover
    ``on``; returns the selection with the least (score, tie) key.

    ``score(chosen, union)`` is an integer compared first; ``tie(chosen)``
    orders selections of equal score and is built only for them.
    ``extras(chosen, union, banned)`` lists the primes a node that covers
    ``on`` may add.  ``hopeless(chosen, union, banned, pool, need, best)``
    prunes a node whose subtree can neither beat nor tie the incumbent
    score ``best``.  At a node that covers ``on``, ``pool`` lists its extras
    and ``need`` is empty; elsewhere ``pool`` is empty and ``need`` holds
    the cheapest coverer of each of some uncovered ON states no prime
    covers two of, so any completion adds at least len(need) terms.
    """
    primes, extents, _, ranks = table
    coverers: dict[int, int] = {}  # ON state bit -> mask of prime indices
    reach: dict[int, int] = {}  # ON state bit -> union of its coverers
    for i, e in enumerate(extents):
        hit = e & on
        while hit:
            s = hit & -hit
            coverers[s] = coverers.get(s, 0) | 1 << i
            reach[s] = reach.get(s, 0) | e
            hit ^= s
    # ON state bit -> its first coverer, which has the fewest literals
    cheapest = {s: (c & -c).bit_length() - 1 for s, c in coverers.items()}

    def union_of(chosen) -> int:
        union = 0
        for i in chosen:
            union |= extents[i]
        return union

    seed = tuple(_greedy_cover(extents, on))
    best = [score(seed, union_of(seed)), seed, None]  # the tie is built on demand
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
            sc = score(chosen, union)
            if sc < best[0]:
                best[:] = sc, chosen, None
            elif sc == best[0]:
                t = tie(chosen)
                if best[2] is None:
                    best[2] = tie(best[1])
                if t < best[2]:
                    best[:] = sc, chosen, t
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


def _meeting(table, on: int):
    """The rows of ``table`` whose extent meets ``on``, order kept."""
    keep = [i for i, e in enumerate(table[1]) if e & on]
    return tuple([column[i] for i in keep] for column in table)


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
    table = _meeting(_prime_table(n, off), on)
    _, _, lits, ranks = table

    def score(chosen, union):
        return sum(lits[i] for i in chosen)

    def tie(chosen):
        return len(chosen), sorted(ranks[i] for i in chosen)

    def hopeless(chosen, union, banned, pool, need, best):
        return sum(lits[i] for i in chosen) + sum(lits[i] for i in need) > best

    return _search(n, table, on, budget, score, tie, lambda *_: [], hopeless)


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

    def score(chosen, union):
        return -value(union.bit_count(), len(chosen))

    def tie(chosen):
        return sum(lits[i] for i in chosen), sorted(ranks[i] for i in chosen)

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
        # gains, and never more than cap, the union of every prime left
        k = len(chosen)
        j_min = max(1, len(need))
        if need:
            pool = [i for i in range(m) if not banned >> i & 1]
        j_max = min(len(pool), m - k)
        if j_min > j_max:
            return True
        reachable = union
        for i in pool:
            reachable |= extents[i]
        cap, target = reachable.bit_count(), -best
        if value(cap, k + j_min) < target:
            return True
        # the gains in decreasing order, taken lazily: no gain exceeds its
        # prime's size, so a pending gain at least the size of the next
        # prime in the pool is the largest left
        pending: list[int] = []  # gains of the primes scanned, not yet taken
        scanned = 0
        u = union.bit_count()
        for j in range(1, j_max + 1):
            while scanned < len(pool) and (
                not pending or max(pending) < sizes[pool[scanned]]
            ):
                pending.append((extents[pool[scanned]] & ~union).bit_count())
                scanned += 1
            gain = max(pending)
            pending.remove(gain)
            u += gain
            if j < j_min:
                continue
            u = min(cap, u)
            if value(u, k + j) >= target:
                return False
            if u == cap:
                break
        return True

    return _search(n, table, on, budget, score, tie, extras, hopeless)


def exact_cover_of(n: int, target: int) -> Cover:
    """Greedy prime cover whose union is exactly ``target`` (no don't-cares
    are available, so any prime selection stays inside the target)."""
    if target == 0:
        return Cover(n, (), 0, True, 0)
    full = (1 << (1 << n)) - 1
    primes, extents, _, ranks = _prime_table(n, full & ~target)
    chosen = sorted(_greedy_cover(extents, target), key=ranks.__getitem__)
    return Cover(n, tuple(primes[i] for i in chosen), target, True, 0)
