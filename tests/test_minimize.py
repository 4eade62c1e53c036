import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weaklab import arith, minimize
from _oracles import (
    all_cubes_extents,
    cube_extent,
    first_max_greedy,
    least_gain_search,
    literal_count,
    min_literals_search,
    naive_cube_text,
    naive_prime_cubes,
    operand_swap,
    operand_swap_state,
    score_cmp,
    term_count,
)


@pytest.fixture(scope="module")
def cubes8():
    return all_cubes_extents(8)


def _texts(cover):
    return [naive_cube_text(cover.n, care, value) for care, value in cover.cubes]


def test_cube_text_and_extent():
    care, value = 0b110, 0b010  # fixes positions 0,1 to 0,1
    assert naive_cube_text(3, care, value) == "01-"
    assert literal_count(minimize.Cover(3, ((care, value),), 0, True, 0)) == 2
    # states with bit2(pos0)=0 and bit1(pos1)=1: '010' and '011' -> 2,3
    assert cube_extent(3, care, value) == (1 << 2) | (1 << 3)


def test_all_cubes_count(cubes8):
    assert len(all_cubes_extents(3)) == 27
    assert len(cubes8) == 6561


def _prime_triples(n, off):
    return [
        (care, value, cube_extent(n, care, value))
        for care, value in minimize.prime_cubes(n, off)
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))
    )
)
def test_prime_cubes_match_naive_expansion(n_off):
    n, off = n_off
    assert _prime_triples(n, off) == naive_prime_cubes(n, off)


@pytest.mark.parametrize("n", range(7))
def test_prime_cubes_of_empty_and_full_off_sets(n):
    full = (1 << (1 << n)) - 1
    assert _prime_triples(n, 0) == naive_prime_cubes(n, 0) == [(0, 0, full)]
    assert _prime_triples(n, full) == naive_prime_cubes(n, full) == []


def test_prime_cubes_match_naive_expansion_at_width_6():
    # sparse to dense OFF sets one width past the property test
    rng = random.Random(6)
    for density in (0.05, 0.3, 0.7, 0.95):
        for _ in range(3):
            off = sum(1 << s for s in range(64) if rng.random() < density)
            assert _prime_triples(6, off) == naive_prime_cubes(6, off)


@pytest.mark.parametrize("n", [*range(6), 8])
def test_cube_ids_ascend_in_text_order(n):
    # the kernel's cube of id i has base-3 digits '-' 0, '0' 1, '1' 2, the
    # leftmost position the top digit, so id order is text order; each value
    # lies within its care mask
    cubes = list(zip(*minimize._id_tables(n)[-2:]))
    assert all(value & ~care == 0 for care, value in cubes)
    texts = [naive_cube_text(n, care, value) for care, value in cubes]
    assert len(set(texts)) == len(texts) == 3**n
    assert texts == sorted(texts)
    for i, text in enumerate(texts):
        assert int(text.translate(str.maketrans("-01", "012")) or "0", 3) == i


def test_prime_table_orders_by_literal_count_then_text():
    rng = random.Random(53)
    cases = [(4, rng.randrange(1 << 16)) for _ in range(30)]
    for k in range(10):
        task = arith.gen_parent_task(("add", "mul")[k % 2], rng.randrange(8))
        cases.append((8, arith.sample_child(task, rng.randint(1, 16), seed=k).off()))
    for n, off in cases:
        primes, extents, lits, ranks = minimize._prime_table(n, off)
        keys = [(c.bit_count(), naive_cube_text(n, c, v)) for c, v in primes]
        assert keys == sorted(keys)
        assert lits == tuple(care.bit_count() for care, _ in primes)
        assert extents == tuple(
            cube_extent(n, care, value) for care, value in primes
        )
        by_rank = sorted(range(len(primes)), key=ranks.__getitem__)
        assert tuple(primes[i] for i in by_rank) == minimize.prime_cubes(n, off)


def test_prime_cubes_match_naive_expansion_on_trial_off_sets(cubes8):
    rng = random.Random(31)
    for k in range(20):
        task = arith.gen_parent_task(("add", "mul")[k % 2], rng.randrange(8))
        child = arith.sample_child(task, rng.randint(1, 16), seed=k)
        off = child.off()
        assert _prime_triples(8, off) == naive_prime_cubes(8, off, cubes8)


def test_primes_are_maximal_and_valid():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        off = rng.randrange(1 << (1 << n))
        primes = minimize.prime_cubes(n, off)
        seen = set()
        for care, value in primes:
            assert cube_extent(n, care, value) & off == 0
            assert (care, value) not in seen
            seen.add((care, value))
            j = care
            while j:
                bit = j & -j
                wider = cube_extent(n, care & ~bit, value & ~bit)
                assert wider & off, "expandable cube reported as prime"
                j ^= bit


def test_min_literal_cover_example_two_states():
    # ON={000,001}: one cube fixing the two leading positions
    on = 0b11
    off = ((1 << 8) - 1) & ~on
    cov = minimize.min_literal_cover(3, on, off)
    assert _texts(cov) == ["00-"]
    assert literal_count(cov) == 2
    assert cov.proven_optimal


def test_min_literal_cover_postconditions():
    rng = random.Random(17)
    cubes4 = all_cubes_extents(4)
    for _ in range(120):
        labels = [rng.choice("ofd") for _ in range(16)]
        on = sum(1 << i for i, l in enumerate(labels) if l == "o")
        off = sum(1 << i for i, l in enumerate(labels) if l == "f")
        if on == 0:
            continue
        cov = minimize.min_literal_cover(4, on, off)
        assert cov.sat & off == 0
        assert on & ~cov.sat == 0
        assert cov.proven_optimal
        expected = min_literals_search(4, on, off, cubes4)
        assert literal_count(cov) == expected


def test_min_literal_cover_deterministic():
    on, off = 0b1010101, 0b0100000
    a = minimize.min_literal_cover(4, on, off)
    b = minimize.min_literal_cover(4, on, off)
    assert a.cubes == b.cubes


def test_min_literal_on_off_overlap_rejected():
    with pytest.raises(ValueError):
        minimize.min_literal_cover(3, 0b11, 0b01)


def _covers_of(n, on, off, meeting_on):
    """Every subset of the naive primes of ``off`` (only those meeting ``on``
    if asked) whose union covers ``on``, as (union, terms, literals,
    sorted cube texts)."""
    primes = [
        (ext, care.bit_count(), naive_cube_text(n, care, value))
        for care, value, ext in naive_prime_cubes(n, off)
        if ext & on or not meeting_on
    ]
    for r in range(len(primes) + 1):
        for combo in itertools.combinations(primes, r):
            u = 0
            for ext, _, _ in combo:
                u |= ext
            if on & ~u == 0:
                yield u, r, sum(c[1] for c in combo), sorted(c[2] for c in combo)


def _brute_weakness_argmax(n, on, off, tau):
    best = None
    for u, k, lits, texts in _covers_of(n, on, off, meeting_on=False):
        if best is None:
            best = (u, k, lits, texts)
            continue
        cmp = score_cmp(
            u.bit_count(), k, best[0].bit_count(), best[1], tau.numerator, tau.denominator
        )
        if cmp > 0 or cmp == 0 and (lits, texts) < (best[2], best[3]):
            best = (u, k, lits, texts)
    return best


def _brute_best_weakness(n, on, off, tau):
    """(|union|, terms) of the exact penalized-score argmax."""
    u, k, _, _ = _brute_weakness_argmax(n, on, off, tau)
    return u.bit_count(), k


def _dont_care_heavy(rng, n, mix, max_primes):
    """Labels drawn from ``mix`` ('o' ON, 'f' OFF, 'd' don't-care), kept
    when ON is nonempty and there are at most ``max_primes`` primes."""
    while True:
        labels = [rng.choice(mix) for _ in range(1 << n)]
        on = sum(1 << i for i, l in enumerate(labels) if l == "o")
        off = sum(1 << i for i, l in enumerate(labels) if l == "f")
        if on and len(minimize.prime_cubes(n, off)) <= max_primes:
            return on, off


DONT_CARE_HEAVY = ["oddf", "oddddf"]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mix", DONT_CARE_HEAVY)
@pytest.mark.parametrize("tau", [Fraction(1), Fraction(1, 2), Fraction(0), Fraction(2)])
def test_max_weakness_cover_is_brute_force_argmax_dont_care_heavy(n, mix, tau):
    rng = random.Random(f"{n}{mix}{tau}")
    for _ in range(40):
        on, off = _dont_care_heavy(rng, n, mix, max_primes=14)
        for on in (on, 0):  # an empty ON is covered at the root
            got = minimize.max_weakness_cover(n, on, off, tau=tau)
            assert got.proven_optimal
            u, k, lits, texts = _brute_weakness_argmax(n, on, off, tau)
            assert (got.sat, term_count(got), literal_count(got)) == (u, k, lits)
            assert _texts(got) == texts


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mix", DONT_CARE_HEAVY)
def test_min_literal_cover_is_brute_force_argmin_dont_care_heavy(n, mix):
    rng = random.Random(f"{n}{mix}")
    for _ in range(40):
        on, off = _dont_care_heavy(rng, n, mix, max_primes=16)
        got = minimize.min_literal_cover(n, on, off)
        assert got.proven_optimal
        assert literal_count(got) == min_literals_search(n, on, off)
        _, k, lits, texts = min(
            _covers_of(n, on, off, meeting_on=True), key=lambda c: (c[2], c[1], c[3])
        )
        assert (literal_count(got), term_count(got)) == (lits, k)
        assert _texts(got) == texts


def _relabelings(n):
    """The images of the 2^n states under each of the n! * 2^n maps that
    permute the n variables and complement some of them."""
    return [
        [sum(((s ^ flip) >> i & 1) << p for i, p in enumerate(perm)) for s in range(1 << n)]
        for perm in itertools.permutations(range(n))
        for flip in range(1 << n)
    ]


def _relabel(states, image):
    return sum(1 << t for s, t in enumerate(image) if states >> s & 1)


def test_optimal_scores_do_not_depend_on_how_the_variables_are_named():
    # a renaming maps the primes of OFF onto the primes of its image, with
    # their literals and extent sizes, so both optimal scores stay; a prune
    # that leans on the cubes' text order can break this
    relabelings = _relabelings(4)
    assert len(relabelings) == 384
    rng = random.Random("relabel-4")
    for mix in ["ofd", *DONT_CARE_HEAVY] * 7:
        on, off = _dont_care_heavy(rng, 4, mix, max_primes=64)
        tau = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)])
        literals = literal_count(minimize.min_literal_cover(4, on, off))
        best = minimize.max_weakness_cover(4, on, off, tau=tau)
        for image in relabelings:
            on_r, off_r = _relabel(on, image), _relabel(off, image)
            assert literal_count(minimize.min_literal_cover(4, on_r, off_r)) == literals
            got = minimize.max_weakness_cover(4, on_r, off_r, tau=tau)
            assert score_cmp(
                got.sat.bit_count(), term_count(got), best.sat.bit_count(),
                term_count(best), tau.numerator, tau.denominator,
            ) == 0


def _experiment_children(seed, op, m, trials):
    # the children of one cell of an experiment grid, derived as
    # run_experiment derives them
    for i in range(trials):
        rng = random.Random(arith.trial_seed(seed, op, m, i))
        task = arith.gen_parent_task(op, rng.randrange(8))
        yield arith.sample_child(task, m, rng)


# (add, 14) is left out: its slow tail would take about 10 s
@pytest.mark.parametrize("op, m", [("add", 6), ("add", 10), ("mul", 6), ("mul", 10), ("mul", 14)])
def test_optimal_scores_do_not_depend_on_the_operand_order(op, m):
    # swapping the operands renames the variables of a width-8 child, so
    # both searches must score it and its mirror alike (the width-4 test
    # above, at the size of the criterion-8 grid)
    image = [operand_swap_state(s) for s in range(256)]
    parent = set(arith.gen_parent_task(op, 0).decisions)
    # the cell's children in the criterion-8 grid of test_acceptance.py
    for child in _experiment_children("acceptance-tables", op, m, 200):
        mirror = operand_swap(child)
        assert set(mirror.decisions) <= parent
        assert (mirror.on, mirror.off()) == (_relabel(child.on, image), _relabel(child.off(), image))
        scores = []
        for task in (child, mirror):
            w = minimize.max_weakness_cover(8, task.on, task.off())
            d = minimize.min_literal_cover(8, task.on, task.off())
            assert w.proven_optimal and d.proven_optimal
            scores.append((w.sat.bit_count(), term_count(w), literal_count(w),
                           literal_count(d), term_count(d)))
        assert scores[0] == scores[1], (child.deleted_bit, child.decisions)


def test_max_weakness_cover_matches_brute_force():
    rng = random.Random(23)
    done = 0
    while done < 40:
        n = 3
        labels = [rng.choice("oofdd") for _ in range(8)]
        on = sum(1 << i for i, l in enumerate(labels) if l == "o")
        off = sum(1 << i for i, l in enumerate(labels) if l == "f")
        if on == 0 or len(minimize.prime_cubes(n, off)) > 12:
            continue
        done += 1
        got = minimize.max_weakness_cover(n, on, off, tau=Fraction(1))
        assert got.proven_optimal
        assert got.sat & off == 0 and on & ~got.sat == 0
        exp_u, exp_k = _brute_best_weakness(n, on, off, Fraction(1))
        got_u = got.sat.bit_count()
        assert score_cmp(exp_u, exp_k, got_u, term_count(got), 1, 1) <= 0
        assert score_cmp(got_u, term_count(got), exp_u, exp_k, 1, 1) <= 0


def test_max_weakness_fractional_tau():
    got = minimize.max_weakness_cover(3, 0b1, 0b10, tau=Fraction(1, 2))
    assert got.sat & 0b10 == 0 and got.sat & 0b1
    exp = _brute_best_weakness(3, 0b1, 0b10, Fraction(1, 2))
    assert (got.sat.bit_count(), term_count(got)) == exp


@pytest.mark.parametrize(
    "search",
    [minimize.max_weakness_cover, minimize.min_literal_cover],
    ids=["max_weakness_cover", "min_literal_cover"],
)
def test_budget_exhaustion_flags_but_covers(search):
    cov = search(4, 0b1111, 0b110000, budget=1)
    assert not cov.proven_optimal
    assert 0b1111 & ~cov.sat == 0
    assert cov.sat & 0b110000 == 0


def test_weakness_cover_of_once_flagged_trial_is_proven_and_better():
    # a search that ran out of its default budget here returned an unproven
    # cover with |sat| 128 at 9 terms
    seed = "acceptance-tables|add|14|33"
    rng = random.Random(seed)
    task = arith.gen_parent_task("add", rng.randrange(8))
    child = arith.sample_child(task, 14, rng)
    got = minimize.max_weakness_cover(8, child.on, child.off())
    assert got.proven_optimal
    assert score_cmp(got.sat.bit_count(), term_count(got), 128, 9, 1, 1) > 0


def _golden_children():
    # the children of the golden experiment grid in test_golden.py
    for op in ("add", "mul"):
        for m in (6, 10, 14):
            yield from _experiment_children("golden-1", op, m, 2)


def test_greedy_seed_picks_as_a_first_max_scan():
    # both searches cover ON over the child's table; exact_cover_of covers
    # the state-mode target over the table of the target's complement
    full = (1 << 256) - 1
    for child in _golden_children():
        target = child.on | (full & ~child.reach_mask)
        for off, on in ((child.off(), child.on), (full & ~target, target)):
            extents = list(minimize._prime_table(8, off)[1])
            got = minimize._greedy_cover(extents, on)
            assert got == first_max_greedy(extents, on)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 2**16 - 1), min_size=1, max_size=12), st.data())
def test_greedy_cover_picks_as_a_first_max_scan_in_any_order(extents, data):
    # extents of any sizes, in any order, with ties between gains
    union = 0
    for e in extents:
        union |= e
    target = data.draw(st.integers(0, union)) & union
    assert minimize._greedy_cover(extents, target) == first_max_greedy(extents, target)


@pytest.mark.parametrize("mode", [arith.MODE_STATE, arith.MODE_PENALIZED])
def test_cover_pairs_rebuild_sat_and_avoid_off(mode):
    # the searches read the table's extents and report its (care, value)
    # pairs: the pairs' extents must OR to sat, which avoids the OFF searched;
    # a state-mode hypothesis holds no cubes, so exact_cover_of covers its sat
    full = (1 << 256) - 1
    for child in _golden_children():
        if mode == arith.MODE_STATE:
            target = child.on | (full & ~child.reach_mask)
            weak, weak_off = minimize.exact_cover_of(8, target), full & ~target
        else:
            weak, weak_off = arith.weakest_model_state(child, mode=mode), child.off()
        for cov, off in (
            (weak, weak_off),
            (minimize.min_literal_cover(8, child.on, child.off()), child.off()),
        ):
            union = 0
            for care, value in cov.cubes:
                union |= cube_extent(8, care, value)
            assert union == cov.sat
            assert cov.sat & off == 0 and child.on & ~cov.sat == 0
            assert _texts(cov) == sorted(set(_texts(cov)))


TAUS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("tau", TAUS, ids=str)
def test_least_gain_matches_binary_search(n, tau):
    num, den = tau.numerator, tau.denominator
    for u in range((1 << n) + 1):
        assert minimize._least_gain(n, num, den, u) == least_gain_search(n, u, tau)


def test_least_gains_are_cached_per_width_and_tau_on_demand():
    tau = Fraction(5, 7)  # no other test searches at this tau
    minimize._LEAST_GAINS.pop((8, 5, 7), None)
    child = next(_golden_children())
    minimize.max_weakness_cover(8, child.on, child.off(), tau=tau)
    gains = minimize._LEAST_GAINS[8, 5, 7]
    filled = [u for u, g in enumerate(gains) if g is not None]
    assert len(gains) == 257 and 0 < len(filled) < 257
    assert all(gains[u] == least_gain_search(8, u, tau) for u in filled)


# (trial seed, weakness nodes, weakness cubes, mdl nodes, mdl cubes) as the
# searches returned them before the node-cost work on the engine: the
# golden experiment grid of test_golden.py, one hard (add, 14) trial, and
# two criterion-8 trials whose node counts grow when the weakness bound
# drops its marginal gains and keeps only the union of the primes left
RECORDED_SEARCHES = [
    (
        "golden-1|add|6|0",
        155,
        ['-----0-1', '-----110', '-0----00', '-1----01'],
        107,
        ['-----0-1', '-----110', '-0----00', '-1----01'],
    ),
    (
        "golden-1|add|6|1",
        59,
        ['-----0-0', '---0-10-', '--0--0--'],
        59,
        ['-----0-0', '---0-10-', '--0--0--'],
    ),
    (
        "golden-1|add|10|0",
        150,
        ['0-----00', '0-01----', '0-1--0--', '1----1-1', '1-00--1-', '1-1---10'],
        32,
        ['0-----00', '0--1-0--', '0-1--0--', '1----1-1', '1----11-', '1-00--1-'],
    ),
    (
        "golden-1|add|10|1",
        12,
        ['-0-0---0', '-0-1---1', '-1-0---1', '-1-1---0'],
        12,
        ['-0-0---0', '-0-1---1', '-1-0---1', '-1-1---0'],
    ),
    (
        "golden-1|add|14|0",
        9,
        ['-0-0---0', '-0-1---1', '-1-0---1', '-1-1---0'],
        9,
        ['-0-0---0', '-0-1---1', '-1-0---1', '-1-1---0'],
    ),
    (
        "golden-1|add|14|1",
        861,
        ['-----011', '---1-1-0', '--00-0--', '--1--10-', '00---0--'],
        861,
        ['-----011', '---0-01-', '---1-1-0', '--1--10-', '0-0--0--'],
    ),
    (
        "golden-1|mul|6|0",
        19,
        ['--0--0--', '0----0--', '1-1--1--'],
        19,
        ['--0--0--', '0----0--', '1-1--1--'],
    ),
    (
        "golden-1|mul|6|1",
        10,
        ['-0----00', '-1-----1', '-1----1-'],
        7,
        ['-0----00', '-1-----1', '-1----1-'],
    ),
    (
        "golden-1|mul|10|0",
        621,
        ['--1--1--', '--1-1---', '0-1---1-', '001-----', '010---0-', '1-0-00--'],
        358,
        ['--1--1--', '--1-1---', '-10---00', '0-1---1-', '001-----', '1-0-00--'],
    ),
    (
        "golden-1|mul|10|1",
        4,
        ['--0--0--', '0----0--', '1-1--1--'],
        4,
        ['--0--0--', '0----0--', '1-1--1--'],
    ),
    (
        "golden-1|mul|14|0",
        21,
        ['--00----', '0--1--0-', '0-1--0--', '1----1--', '1-0---1-'],
        21,
        ['--00----', '0----00-', '0-1--0--', '1----1--', '1-0---1-'],
    ),
    (
        "golden-1|mul|14|1",
        4,
        ['---0---0', '-0-----0', '-1-1---1'],
        4,
        ['---0---0', '-0-----0', '-1-1---1'],
    ),
    (
        "acceptance-tables|add|14|33",
        19181,
        [
            '0--1--00', '0-0---0-', '0-01---0', '0-1--0--', '1----11-', '1-1---01',
            '10---1--', '100---1-', '110----1',
        ],
        2639,
        [
            '0----00-', '0--1--00', '0--1-0-0', '0-1--0--', '1----1-1', '1----11-',
            '1--0-1--', '1-0---11', '1-00--1-',
        ],
    ),
    (
        "acceptance-tables|add|10|18",
        12,
        ['-0-0---0', '-0-1---1', '-1-0---1', '-1-1---0'],
        10,
        ['---1-11-', '-0-0---0', '-0-1---1', '-1-0---1'],
    ),
    (
        "acceptance-tables|mul|10|167",
        8,
        ['-1---00-', '0----0--', '1-1--1-0'],
        12,
        ['-1---00-', '0----0--', '1-1--1-0'],
    ),
]


@pytest.mark.parametrize("record", RECORDED_SEARCHES, ids=lambda r: r[0])
def test_searches_keep_recorded_covers_in_no_more_nodes(record):
    seed, w_nodes, w_cubes, d_nodes, d_cubes = record
    _, op, m, _ = seed.split("|")
    rng = random.Random(seed)  # as run_experiment derives the trial
    task = arith.gen_parent_task(op, rng.randrange(8))
    child = arith.sample_child(task, int(m), rng)
    for search, nodes, cubes in (
        (minimize.max_weakness_cover, w_nodes, w_cubes),
        (minimize.min_literal_cover, d_nodes, d_cubes),
    ):
        got = search(8, child.on, child.off())
        assert got.proven_optimal
        assert _texts(got) == cubes
        assert got.nodes_used <= nodes


def test_infeasible_weakness_cover_raises():
    # ON state adjacent to OFF everywhere: cover exists (its own minterm),
    # so build a genuinely infeasible case instead: ON intersects OFF
    with pytest.raises(ValueError):
        minimize.max_weakness_cover(3, 0b1, 0b1)


def test_exact_cover_of_roundtrip():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 4)
        target = rng.randrange(1, 1 << (1 << n))
        cov = minimize.exact_cover_of(n, target)
        assert cov.sat == target
        assert cov.proven_optimal


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_min_literal_matches_oracle_hypothesis(on_raw, off_raw):
    on = on_raw & ~off_raw
    if on == 0:
        return
    cov = minimize.min_literal_cover(3, on, off_raw & ~on_raw)
    off = off_raw & ~on_raw
    assert cov.sat & off == 0 and on & ~cov.sat == 0
    assert literal_count(cov) == min_literals_search(3, on, off)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**16 - 1))
def test_exact_cover_hypothesis(target):
    cov = minimize.exact_cover_of(4, target)
    assert cov.sat == target


def test_score_comparison_exactness():
    # log2(6)-1 == log2(3) exactly; the integer comparison must see a tie
    assert score_cmp(6, 1, 3, 0, 1, 1) == 0
    assert score_cmp(3, 0, 6, 1, 1, 1) == 0
    assert score_cmp(7, 1, 3, 0, 1, 1) == 1
    assert score_cmp(3, 0, 7, 1, 1, 1) == -1
    # tau = 3/2: u_a=8,k=2 scores 0; u_b=2,k=0 scores 1 -> b wins
    assert score_cmp(2, 0, 8, 2, 3, 2) == 1
    assert score_cmp(8, 2, 2, 0, 3, 2) == -1
    # an empty union scores -inf: below any nonempty one, tied with another
    assert score_cmp(0, 0, 1, 5, 1, 1) == -1
    assert score_cmp(1, 5, 0, 0, 1, 1) == 1
    assert score_cmp(0, 0, 0, 3, 1, 1) == 0
