"""Two-level cover search over small bit-string spaces (up to 8 variables).

States are integers whose bit j holds string position n-1-j (position 0 is
the leftmost character).  A cube fixes a subset of positions; its extent is
the set of matching states, packed as an int bitmask.  Primes are found
bit-parallel: one state mask per care mask (2^n of them) marks the cubes
with that care set that avoid OFF, each derived from a wider care mask by
one shift-and-mask step.

Two searches share the prime machinery:

* minimum total-literal cover of an ON set with don't-cares (the
  description-length side), exact branch and bound;
* maximum of log2(|union of extents|) - tau * terms over covers of the ON
  set (the weakness-penalty side), exact branch and bound under a node
  budget with a greedy fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import SearchFailureError

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

    def __lt__(self, other: "Cube") -> bool:
        return self.text() < other.text()


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


def _in_text_order(cubes: list[Cube], ranks: list[int], chosen) -> tuple[Cube, ...]:
    return tuple(cubes[i] for i in sorted(chosen, key=ranks.__getitem__))


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

    def key(self) -> tuple[str, ...]:
        return tuple(sorted(c.text() for c in self.cubes))


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


# ---------------------------------------------------------------------------
# minimum-literal cover


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
    primes, extents, lits, ranks = _prime_table(n, off, on)
    state_primes: dict[int, list[int]] = {}
    state_union: dict[int, int] = {}
    state_min_lit: dict[int, int] = {}
    rem = on
    while rem:
        s_bit = rem & -rem
        idxs = [i for i, e in enumerate(extents) if e & s_bit]
        u = 0
        for i in idxs:
            u |= extents[i]
        state_primes[s_bit] = idxs
        state_union[s_bit] = u
        state_min_lit[s_bit] = min(lits[i] for i in idxs)
        rem ^= s_bit

    def lower_bound(uncovered: int) -> int:
        lb = 0
        rem = uncovered
        while rem:
            s_bit = rem & -rem
            lb += state_min_lit[s_bit]
            rem &= ~state_union[s_bit]
        return lb

    # greedy incumbent (cheapest literals per newly covered state) so budget
    # exhaustion still returns a cover, flagged as unproven
    greedy: list[int] = []
    uncovered = on
    while uncovered:
        cand = None
        for i in range(len(primes)):
            gain = (extents[i] & uncovered).bit_count()
            if not gain:
                continue
            score = (lits[i] / gain, lits[i], ranks[i])
            if cand is None or score < cand[0]:
                cand = (score, i)
        greedy.append(cand[1])
        uncovered &= ~extents[cand[1]]
    greedy_key = (
        sum(lits[i] for i in greedy),
        len(greedy),
        tuple(sorted(ranks[i] for i in greedy)),
    )
    best: list = [greedy_key + (tuple(greedy),)]  # (lits, terms, key, indices)
    bud = _Budget(budget)
    exhausted = [False]

    def dfs(uncovered: int, chosen: tuple[int, ...], total_lits: int, banned: int):
        if not bud.spend():
            exhausted[0] = True
            return
        if uncovered == 0:
            key = (total_lits, len(chosen), tuple(sorted(ranks[i] for i in chosen)))
            if best[0] is None or key < best[0][:3]:
                best[0] = key + (chosen,)
            return
        if best[0] is not None and total_lits + lower_bound(uncovered) > best[0][0]:
            return
        # branch on the uncovered state with the fewest covering primes
        pick, pick_count = None, None
        rem = uncovered
        while rem:
            s_bit = rem & -rem
            cnt = sum(1 for i in state_primes[s_bit] if not banned >> i & 1)
            if cnt == 0:
                return
            if pick is None or cnt < pick_count:
                pick, pick_count = s_bit, cnt
            rem ^= s_bit
        tried = 0
        for i in state_primes[pick]:
            if banned >> i & 1:
                continue
            dfs(
                uncovered & ~extents[i],
                chosen + (i,),
                total_lits + lits[i],
                banned | tried,
            )
            tried |= 1 << i
            if exhausted[0]:
                return

    dfs(on, (), 0, 0)
    chosen = best[0][3]
    sat = 0
    for i in chosen:
        sat |= extents[i]
    cubes = _in_text_order(primes, ranks, chosen)
    return Cover(n, cubes, sat, not exhausted[0], budget - bud.left)


# ---------------------------------------------------------------------------
# weakness-penalty cover


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
    tau_num, tau_den = tau.numerator, tau.denominator
    # widest first so the greedy seed and first branches go for weak covers
    primes, extents, lits, ranks = _prime_table(n, off)
    m = len(primes)
    suffix_union = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | extents[i]
    if on & ~suffix_union[0]:
        raise SearchFailureError("ON set not coverable while avoiding OFF")
    # extent sizes in branch order (descending), so the sum of sizes[i:i+j]
    # bounds the union gain of any j selections from the suffix
    sizes = [e.bit_count() for e in extents]
    # per ON state: union of extents of the primes covering it (for a
    # disjoint-witness lower bound on the number of terms still needed)
    state_union: dict[int, int] = {}
    rem = on
    while rem:
        s_bit = rem & -rem
        u = 0
        for e in extents:
            if e & s_bit:
                u |= e
        state_union[s_bit] = u
        rem ^= s_bit

    def terms_needed(uncovered: int) -> int:
        cnt = 0
        rem = uncovered
        while rem:
            s_bit = rem & -rem
            cnt += 1
            rem &= ~state_union[s_bit]
        return cnt

    def better(u_a, k_a, l_a, key_a, u_b, k_b, l_b, key_b) -> bool:
        cmp = _score_cmp(u_a, k_a, u_b, k_b, tau_num, tau_den)
        return cmp > 0 if cmp else (l_a, key_a) < (l_b, key_b)

    # greedy seed: max marginal extent until ON covered, then profitable extras
    greedy: list[int] = []
    u = 0
    uncovered = on
    while uncovered:
        cand = None
        for i in range(m):
            if i in greedy or not extents[i] & uncovered:
                continue
            gain = (extents[i] & uncovered).bit_count()
            if cand is None or gain > cand[0]:
                cand = (gain, i)
        greedy.append(cand[1])
        u |= extents[cand[1]]
        uncovered &= ~extents[cand[1]]
    improved = True
    while improved:
        improved = False
        for i in range(m):
            if i in greedy:
                continue
            nu = u | extents[i]
            if nu != u and _score_cmp(
                nu.bit_count(),
                len(greedy) + 1,
                u.bit_count(),
                len(greedy),
                tau_num,
                tau_den,
            ) > 0:
                greedy.append(i)
                u = nu
                improved = True
                break

    best = {
        "u": u.bit_count(),
        "k": len(greedy),
        "lits": sum(lits[i] for i in greedy),
        "key": tuple(sorted(ranks[i] for i in greedy)),
        "chosen": tuple(sorted(greedy)),
    }

    bud = _Budget(budget)
    exhausted = [False]

    def consider(chosen: tuple[int, ...], union: int):
        u_pc = union.bit_count()
        k = len(chosen)
        l = sum(lits[i] for i in chosen)
        key = tuple(sorted(ranks[i] for i in chosen))
        if better(u_pc, k, l, key, best["u"], best["k"], best["lits"], best["key"]):
            best.update(u=u_pc, k=k, lits=l, key=key, chosen=tuple(sorted(chosen)))

    def subtree_can_matter(i: int, union: int, uncovered: int, k_now: int) -> bool:
        # Optimistic score of any strict extension drawn from primes[i:]:
        # j more terms reach at most min(|union ∪ suffix|, |union| + j*top
        # marginal sizes); scan j from the forced minimum until saturation.
        reachable = union | suffix_union[i]
        if uncovered & ~reachable:
            return False
        reach_pc = reachable.bit_count()
        u_pc = union.bit_count()
        j_min = max(1, terms_needed(uncovered))
        u_j = u_pc
        idx = i
        for j in range(1, j_min):
            if idx < m:
                u_j += sizes[idx]
                idx += 1
        best_u, best_k = best["u"], best["k"]
        j = j_min
        while True:
            if idx < m:
                u_j = min(reach_pc, u_j + sizes[idx])
                idx += 1
            else:
                u_j = reach_pc
            if _score_cmp(u_j, k_now + j, best_u, best_k, tau_num, tau_den) >= 0:
                return True
            if u_j >= reach_pc:
                return False  # more terms only lower the score from here
            j += 1

    def dfs(i: int, chosen: tuple[int, ...], union: int, uncovered: int):
        if exhausted[0] or not bud.spend():
            exhausted[0] = True
            return
        if uncovered == 0:
            consider(chosen, union)
        if i == m:
            return
        if not subtree_can_matter(i, union, uncovered, len(chosen)):
            return
        if extents[i] & ~union:
            dfs(i + 1, chosen + (i,), union | extents[i], uncovered & ~extents[i])
        dfs(i + 1, chosen, union, uncovered)

    dfs(0, (), 0, on)
    chosen = best["chosen"]
    sat = 0
    for i in chosen:
        sat |= extents[i]
    cubes = _in_text_order(primes, ranks, chosen)
    return Cover(n, cubes, sat, not exhausted[0], budget - bud.left)


# ---------------------------------------------------------------------------
# exact representation of a given state set


def exact_cover_of(n: int, target: int) -> Cover:
    """Greedy prime cover whose union is exactly ``target`` (no don't-cares
    are available, so any prime selection stays inside the target)."""
    if target == 0:
        return Cover(n, (), 0, True, 0)
    full = (1 << (1 << n)) - 1
    primes, extents, _, ranks = _prime_table(n, full & ~target)
    chosen = []
    sat = 0
    uncovered = target
    while uncovered:
        cand = None
        for i, ext in enumerate(extents):
            gain = (ext & uncovered).bit_count()
            if gain and (cand is None or gain > cand[0]):
                cand = (gain, i)
        chosen.append(cand[1])
        sat |= extents[cand[1]]
        uncovered &= ~extents[cand[1]]
    return Cover(n, _in_text_order(primes, ranks, chosen), sat, True, 0)
