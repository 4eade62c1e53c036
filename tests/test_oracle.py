import collections
import functools
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from weaklab import (
    CapacityError,
    Predicate,
    Statement,
    StateSpace,
    Vocabulary,
    make_task,
    oracle,
)
from weaklab.induction import generalisation_probability
from weaklab.lattice import DEFAULT_LANGUAGE_CAP
from conftest import random_language
from _oracles import (
    CENSUS_CAP,
    census_size,
    _census_by_situations,
    census_tasks,
    deviation_count,
    enumerate_tasks,
    masks_census_size,
    naive_census_count,
    naive_extension,
    per_task_optimality,
    sampler_draws,
    state_row_key,
    walk_census_tasks,
)


def S(*idx):
    return Statement.of(idx)


# ---------------------------------------------------------------------------
# census


def test_tiny_census_is_26(tiny):
    census = enumerate_tasks(tiny)
    assert census.count == 26
    # independent recount by naive subset enumeration
    universe = [frozenset(s.members) for s in tiny.statements]
    assert naive_census_count(universe) == 26
    assert census_size(tiny) == 26


def test_census_tasks_are_valid(tiny, fx):
    for lang in (tiny, fx.lang):
        universe = [frozenset(s.members) for s in lang.statements]
        for t in enumerate_tasks(lang).tasks:
            naive = set()
            for s in t.situations:
                naive |= naive_extension(universe, frozenset(s.members))
            reachable = lang.statements_of(t.reach)
            assert {frozenset(z.members) for z in reachable} == naive


def test_census_cap(fx, monkeypatch):
    with pytest.raises(CapacityError):
        enumerate_tasks(fx.lang, cap=10)
    with pytest.raises(CapacityError):
        census_size(fx.lang, cap=10)
    # the sweep's cap counts members, and refuses before any mask is built
    assert fx.lang.size == 8
    monkeypatch.setattr(oracle.Language, "extension_masks", lambda self: pytest.fail())
    with pytest.raises(CapacityError):
        oracle.verify_weakness_optimality(fx.lang, max_members=7)


def test_member_cap_keeps_the_languages_a_census_cap_kept():
    # every derived language of at most 3 states and every 4-state vocabulary
    # of 1 to 5 predicates: a census over 10^6 tasks exactly when more than
    # the default 10 members
    space = StateSpace(tuple(f"s{i}" for i in range(4)))
    langs = [*oracle.all_derived_languages(3, 8), *(
        oracle.Language.derive(space, Vocabulary(
            tuple(Predicate(f"p{i}", t) for i, t in enumerate(tables))))
        for k in range(1, 6) for tables in itertools.combinations(range(16), k))]
    assert len(langs) == 7_160
    kept, refused = [], []
    for lang in langs:
        try:
            census_size(lang, CENSUS_CAP)
        except CapacityError:
            refused.append(lang.size)
        else:
            kept.append(lang.size)
    assert (max(kept), min(refused)) == (oracle.DEFAULT_MAX_MEMBERS, 11)


def test_empty_language_has_no_tasks():
    space = StateSpace(())
    lang = oracle.Language.derive(space, Vocabulary(()))
    assert enumerate_tasks(lang).count == 0


def test_census_size_matches_enumeration():
    rng = random.Random(2024)
    for _ in range(20):
        lang = random_language(rng, max_states=3, max_vocab=3)
        assert census_size(lang) == enumerate_tasks(lang).count


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
@example([])
@example([0])
@example([1])
@example([1 << i for i in range(12)])
def test_census_kernels_match_the_naive_loops(ext):
    # the doubling reach table, the census size and the sliced superset sums
    # against the mask-by-mask loops of the reference routes, on any masks
    reach, size = oracle._census(ext)
    full = (1 << len(ext)) - 1
    assert len(reach) == full + 1
    assert size == masks_census_size(ext, math.inf)
    terms = [1 << z.bit_count() for z in reach[:full]] + [0]
    g = terms[:]
    oracle._superset_sums(g)
    rows = list(_census_by_situations(ext))
    assert [row[0] for row in rows] == list(range(1, full))
    assert [row[1] for row in rows] == reach[1:full]
    assert [row[3] for row in rows] == [g[m] - terms[m] for m in range(1, full)]
    assert g[0] == sum(terms) and g[full] == 0


# ---------------------------------------------------------------------------
# weakness-optimality verification


def test_tiny_verify_no_violations(tiny):
    rep = oracle.verify_weakness_optimality(tiny)
    assert rep.violations == []
    assert rep.census_size == 26
    assert rep.tasks_checked == 14


def _task_of(lang, record):
    return make_task(
        lang, lang.statements_of(record.situations), lang.statements_of(record.decisions)
    )


def test_tiny_verify_known_row(tiny):
    # task S={{p}}, D={{p}} has models {} and {p}; both generalise to the
    # same 2 of its 6 census parents; formula values 1 and 1/4
    p = 1 << tiny.position(S(0))
    (record,) = [
        r for r in census_tasks(tiny) if r.situations == p and r.decisions == p
    ]
    models = [tiny.statements[h] for h in record.models]
    assert models == [S(), S(0)]
    assert record.parent_counts == (2, 2)
    assert record.total_parents == 6
    task = _task_of(tiny, record)
    assert [generalisation_probability(task, h) for h in models] == [1, Fraction(1, 4)]
    assert Fraction(record.parent_counts[0], record.total_parents) == Fraction(1, 3)


def test_models_share_parent_counts(tiny, fx):
    # observed in exhaustive sweeps: under the census measure every model of
    # a task attains the same parent count, which is why violations are zero
    for lang in (tiny, fx.lang):
        records = list(census_tasks(lang))
        assert len(records) == oracle.verify_weakness_optimality(lang).tasks_checked
        assert all(len(set(r.parent_counts)) == 1 for r in records)


def test_single_model_tasks_trivially_clean(tiny):
    for r in census_tasks(tiny):
        assert all(count <= r.total_parents for count in r.parent_counts)


def test_deviation_count_matches_fractions(tiny):
    # the reference counts deviations with shifted integers; recount them with
    # Fractions from the record and the task-level formula
    rng = random.Random(811)
    while True:
        lang = random_language(rng, max_states=3, max_vocab=3)
        if lang.size >= 4 and census_size(lang) <= 2_000:
            break
    for lang in (tiny, lang):
        expected = 0
        for r in census_tasks(lang):
            task = _task_of(lang, r)
            for h, count in zip(r.models, r.parent_counts):
                formula = generalisation_probability(task, lang.statements[h])
                if r.total_parents and Fraction(count, r.total_parents) != formula:
                    expected += 1
        assert expected > 0
        assert deviation_count(lang) == expected


def test_divergence_fixture_deviation_count(fx):
    # the fixture language's (task, model) pairs whose parent fraction differs
    # from the formula value
    assert deviation_count(fx.lang) == 1507


def test_parent_counts_match_object_level_scan(tiny):
    # dual route: recount parents with the task-level child relation and
    # model predicate, no bitmask machinery
    from weaklab import is_child

    langs = [tiny]
    rng = random.Random(505)
    while len(langs) < 4:
        cand = random_language(rng, max_states=3, max_vocab=2)
        if 2 <= cand.size and census_size(cand) <= 400:
            langs.append(cand)
    for lang in langs:
        census = enumerate_tasks(lang).tasks
        for r in census_tasks(lang):
            situations = lang.statements_of(r.situations)
            decisions = lang.statements_of(r.decisions)
            task = next(
                t for t in census if t.situations == situations and t.decisions == decisions
            )
            parents = [w for w in census if w is not task and is_child(task, w)]
            assert r.total_parents == len(parents)
            for h, count in zip(r.models, r.parent_counts):
                h = lang.statements[h]
                assert task.is_model(h)
                assert count == sum(1 for w in parents if w.is_model(h))
            assert [lang.statements[h] for h in r.models] == list(task.models())


def test_census_tasks_match_superset_walk(tiny, fx):
    # the superset-sum transform against the 3^n walk over every proper
    # superset, record for record, on the languages criterion 3 sweeps
    edge = [
        oracle.Language.derive(StateSpace(states), Vocabulary(()))
        for states in ((), ("s0",))
    ]
    assert [lang.size for lang in edge] == [0, 1]
    langs = [
        tiny,
        fx.lang,
        *edge,
        *oracle.all_derived_languages(3, 3),
        *oracle.sample_derived_languages(4, 50, seed="acceptance-oracle"),
    ]
    assert len(langs) == 4 + 112 + 50
    for lang in langs:
        assert list(census_tasks(lang)) == list(walk_census_tasks(lang))


def test_sweep_matches_per_task_reference(tiny, fx):
    # the per-reach sweep against the per-task check over the census
    # records, report for report: the default cap's languages of at most 3
    # states and 4 predicates, the 4-state samples of `verify --max-vocab 4`,
    # the fixtures, and 12- and 14-member 4-state languages without a cap
    langs = [
        tiny,
        fx.lang,
        *oracle.all_derived_languages(3, 4),
        *oracle.sample_derived_languages(4, 50, seed="weaklab-verify", max_vocab=5),
    ]
    checked = 0
    for lang in langs:
        try:
            expected = per_task_optimality(lang)
        except CapacityError:
            with pytest.raises(CapacityError):
                oracle.verify_weakness_optimality(lang)
            continue
        assert oracle.verify_weakness_optimality(lang) == expected
        checked += 1
    assert checked == 2 + 167 + 50
    space = StateSpace(tuple(f"s{i}" for i in range(4)))
    for tables, size in (((1, 2, 3, 7), 12), ((3, 5, 6, 7), 14)):
        vocab = Vocabulary(tuple(Predicate(f"p{i}", t) for i, t in enumerate(tables)))
        lang = oracle.Language.derive(space, vocab)
        assert lang.size == size
        expected = per_task_optimality(lang, math.inf)
        assert oracle.verify_weakness_optimality(lang, math.inf) == expected


def _explicit_sub_universes(count, seed):
    # distinct censuses of explicit languages that list 2 or more members of a
    # derived language of at most 3 states and 3 predicates
    langs = [lang for lang in oracle.all_derived_languages(3, 3) if lang.size >= 2]
    rng = random.Random(seed)
    found = {}
    while len(found) < count:
        lang = rng.choice(langs)
        members = rng.sample(lang.statements, rng.randint(2, lang.size))
        sub = oracle.Language.explicit(lang.space, lang.vocab, members)
        found.setdefault(tuple(sub.extension_masks()), sub)
    return list(found.values())


def test_sweep_matches_per_situation_route_on_sub_universes():
    # the per-reach sweep against the per-situation route, report for report
    for lang in _explicit_sub_universes(60, "explicit-sub-universes"):
        assert oracle.verify_weakness_optimality(lang) == per_task_optimality(lang)


def test_sub_universes_take_every_branch_of_the_deviation_test():
    # model h of S's tasks matches the formula when left = above · 2^x_h,
    # x_h = |Z_h| - 2|D|; sort the situation sets of the sample above by the
    # branch they take, from brute-force sums over the proper supersets, and
    # count the unmatched models against the reference deviation count
    branches = collections.Counter()
    for lang in _explicit_sub_universes(60, "explicit-sub-universes"):
        deviations = 0
        ext = lang.extension_masks()
        n, full = len(ext), (1 << len(ext)) - 1

        def reach(mask):
            return functools.reduce(operator.or_, (e for i, e in enumerate(ext) if mask >> i & 1))

        for s_mask in range(1, full):
            zs = reach(s_mask)
            xs = [e.bit_count() - 2 * (zs & e).bit_count() for e in ext if zs & e]
            supersets = [t for t in range(s_mask + 1, full) if t & s_mask == s_mask]
            above = sum(1 << reach(t).bit_count() for t in supersets)
            left = ((1 << (n - s_mask.bit_count())) - 2) << (n - zs.bit_count())
            assert (left == 0) == (above == 0) == (s_mask.bit_count() == n - 1)
            if not above:
                branches["no parents"] += 1
                continue
            ratio = Fraction(left, above)
            power = math.log2(ratio) if all(
                k & (k - 1) == 0 for k in (ratio.numerator, ratio.denominator)) else None
            matched = sum(ratio == Fraction(2) ** x for x in xs)
            deviations += len(xs) - matched
            if power is None:
                assert matched == 0
                branches["not a power of two"] += 1
            else:
                branches[("power of two", power < 0, matched > 0)] += 1
        assert deviation_count(lang) == deviations
    # a power of two below 1 and equal to 1, each with and without a model
    # that matches it (no ratio above 1 occurs in the sample)
    assert set(branches) == {"no parents", "not a power of two", *itertools.product(
        ["power of two"], [True, False], [True, False])}


def test_verify_reports_violation_in_loop(tiny, monkeypatch):
    # every model of a census task has the same parent count, so lower the
    # weakness-maximal model's count in one two-model task of the sweep:
    # S = D = {{p}}, whose models are {} (weakness 3) and {p} (weakness 1)
    p = 1 << tiny.position(S(0))
    empty, only_p = tiny.position(S()), tiny.position(S(0))
    parent_counts = oracle._parent_counts

    def tampered(s_masks, d, models, n):
        cols = parent_counts(s_masks, d, models, n)
        if d == p and p in s_masks:
            assert models == [empty, only_p] and cols[0] == cols[1]
            low = cols[0][:]
            low[s_masks.index(p)] -= 1
            return [low, cols[1]]
        return cols

    monkeypatch.setattr(oracle, "_parent_counts", tampered)
    rep = oracle.verify_weakness_optimality(tiny)
    (v,) = rep.violations
    assert v.situations == tuple(s.members for s in tiny.statements_of(p))
    assert v.decisions == tuple(s.members for s in tiny.statements_of(p))
    assert (v.weak_model, v.weak_count, v.best_model, v.best_count) == ((), 1, (0,), 2)
    assert per_task_optimality(tiny) == rep


def test_violations_keep_situation_order_through_the_reach_visit(monkeypatch):
    # the sweep visits the situation sets grouped by reach, and sorts its
    # violations back into situation order: rank each multi-model task's models
    # by weakness, weakest last, so that every weakness-maximal model is beaten
    # unless its task's models tie
    weak = []
    parent_counts = oracle._parent_counts

    def tampered(s_masks, d, models, n):
        cols = parent_counts(s_masks, d, models, n)
        return [[count - weak[h] for count in col] for h, col in zip(models, cols)]

    monkeypatch.setattr(oracle, "_parent_counts", tampered)
    langs = [*oracle.sample_derived_languages(4, 50, seed="weaklab-verify", max_vocab=5),
             *_explicit_sub_universes(60, "explicit-sub-universes")]
    violations = out_of_order = 0
    for lang in langs:
        weak[:] = [e.bit_count() for e in lang.extension_masks()]
        rep, ref = oracle.verify_weakness_optimality(lang), per_task_optimality(lang)
        assert rep == ref
        violations += len(rep.violations)
        raw = oracle._sweep(lang.extension_masks())[2]
        reach = oracle._census(lang.extension_masks())[0]
        visit = sorted(range(len(raw)), key=lambda i: reach[raw[i][0]])
        out_of_order += visit != sorted(visit)
    assert (violations, out_of_order) == (3027, 75)


def _multi_model_tasks_by_reach(ext):
    # {(Z_S, D): (models, the situation sets S of that reach, increasing)} for
    # every task with two or more models, from a reach ORed member by member
    found = {}
    for s_mask in range(1, (1 << len(ext)) - 1):
        zs = functools.reduce(operator.or_, (e for i, e in enumerate(ext) if s_mask >> i & 1))
        for d in {zs & e for e in ext} - {0}:
            models = [h for h, e in enumerate(ext) if zs & e == d]
            if len(models) > 1:
                found.setdefault((zs, d), (models, []))[1].append(s_mask)
    return found


def _three_state_language(tables):
    vocab = Vocabulary(tuple(Predicate(f"p{i}", t) for i, t in enumerate(tables)))
    return oracle.Language.derive(StateSpace(("s0", "s1", "s2")), vocab)


def test_the_sweep_reads_parent_counts_once_per_reach_and_task(fx, monkeypatch):
    # one `_parent_counts` call per (distinct Z_S, D) with two or more models,
    # over every situation set of that reach in increasing order
    calls = []
    parent_counts = oracle._parent_counts

    def recorded(s_masks, d, models, n):
        calls.append((tuple(s_masks), d, tuple(models), n))
        return parent_counts(s_masks, d, models, n)

    monkeypatch.setattr(oracle, "_parent_counts", recorded)
    for lang, n_calls in ((_three_state_language((1, 3, 5)), 31), (fx.lang, 44)):
        ext = lang.extension_masks()
        calls.clear()
        oracle._sweep(ext)
        expected = _multi_model_tasks_by_reach(ext)
        assert len(calls) == len(expected) == n_calls
        assert sorted(calls) == sorted(
            (tuple(s_masks), d, tuple(models), len(ext))
            for (_, d), (models, s_masks) in expected.items())


def test_a_tie_broken_at_one_situation_set_is_a_violation_there_alone(monkeypatch):
    # lower one weakness-maximal model's count at one situation set of a reach
    # group, for every situation set of every multi-model task's group: the
    # sweep must report that set, and no other, as the one violation
    lang = _three_state_language((1, 3, 5))
    ext = lang.extension_masks()
    weak = [e.bit_count() for e in ext]
    parent_counts = oracle._parent_counts
    tasks = _multi_model_tasks_by_reach(ext)
    assert max(len(s_masks) for _, s_masks in tasks.values()) > 2
    checked = 0
    for (_, d), (models, s_masks) in tasks.items():
        w_max = max(weak[h] for h in models)
        h = next(h for h in models if weak[h] == w_max)
        best_h = models[1] if h == models[0] else models[0]
        for i, target in enumerate(s_masks):
            def tampered(ss, dd, mm, n):
                cols = parent_counts(ss, dd, mm, n)
                if dd == d and ss == s_masks:
                    cols = [col[:] for col in cols]
                    cols[mm.index(h)][i] -= 1
                return cols

            monkeypatch.setattr(oracle, "_parent_counts", tampered)
            count = (1 << (len(ext) - target.bit_count())) - 2
            assert oracle._sweep(ext)[2] == [(target, d, h, count - 1, best_h, count)]
            checked += 1
    assert checked == 133


def test_an_antichain_sweep_holds_one_reach_group_at_a_time():
    # every situation set of an antichain has its own reach; the sweep holds
    # the reach table, not a grouping per reach
    ext = [1 << i for i in range(14)]
    tracemalloc.start()
    try:
        size, tasks, raw = oracle._sweep(ext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (size, tasks, raw) == (3**14 - 2**15 + 1, 14 * 2**13 - 14, [])
    assert peak < 3 * 2**20  # 7.4 MB with a grouping kept per reach


def _report_or_capacity(lang, **kwargs):
    try:
        return oracle.verify_weakness_optimality(lang, **kwargs)
    except CapacityError:
        return CapacityError


@pytest.mark.parametrize("seed", ["weaklab-verify", "sweep-memo"])
def test_shared_sweep_dict_gives_the_same_reports(fx, seed):
    # the fixture language, then those of `verify --max-states 4 --max-vocab 4`
    langs = [
        fx.lang,
        *oracle.all_derived_languages(3, 4),
        *oracle.sample_derived_languages(4, 50, seed=seed, max_vocab=5),
    ]
    swept = {}
    shared = [_report_or_capacity(lang, swept=swept) for lang in langs]
    alone = [_report_or_capacity(lang) for lang in langs]
    assert shared == alone
    assert shared.count(CapacityError) == 16
    assert len(swept) < len(langs) - 16


def test_a_shared_sweep_rebuilds_violations_per_language(monkeypatch):
    # two derived languages with one extension-mask tuple but different
    # statements: {}, {p0}, {p1} and {}, {p1}, {p2} (p0 is never true)
    space = StateSpace(("s0", "s1"))
    langs = [
        oracle.Language.derive(space, Vocabulary(
            tuple(Predicate(f"p{i}", t) for i, t in enumerate(tables))))
        for tables in ((1, 2), (0, 1, 2))
    ]
    a, b = langs
    assert a.extension_masks() == b.extension_masks()
    assert a.statements != b.statements
    calls = []

    def fake_sweep(ext):
        # one raw violation: S = D = {member 1}, weak model 0, best model 1
        calls.append(ext)
        return 26, 5, [(0b010, 0b010, 0, 1, 1, 2)]

    monkeypatch.setattr(oracle, "_sweep", fake_sweep)
    swept = {}
    rep_a, rep_b = (oracle.verify_weakness_optimality(l, swept=swept) for l in langs)
    assert len(calls) == 1
    assert rep_a.violations is not rep_b.violations
    for rep, lang in ((rep_a, a), (rep_b, b)):
        s = [st.members for st in lang.statements]
        assert rep.census_size == 26 and rep.tasks_checked == 5
        assert rep.violations == [oracle.Violation((s[1],), (s[1],), s[0], 1, s[1], 2)]
    # a caller may append to a report's list; the next report starts afresh
    rep_a.violations.append(rep_b.violations[0])
    assert len(oracle.verify_weakness_optimality(a, swept=swept).violations) == 1
    assert len(rep_b.violations) == 1 and len(calls) == 1


def test_exhaustive_small_sweep_clean():
    violations = 0
    n_langs = 0
    for lang in oracle.all_derived_languages(2, 2):
        rep = oracle.verify_weakness_optimality(lang)
        violations += len(rep.violations)
        n_langs += 1
    assert n_langs == 4 + 11  # states=1: 4 vocabularies, states=2: 11
    assert violations == 0


def test_language_enumeration_count_3_3():
    assert sum(1 for _ in oracle.all_derived_languages(3, 3)) == 112


def test_sampling_deterministic():
    a = oracle.sample_derived_languages(4, 10, seed=5)
    b = oracle.sample_derived_languages(4, 10, seed=5)
    assert [l.statements for l in a] == [l.statements for l in b]
    assert all(census_size(l) <= CENSUS_CAP for l in a)
    assert all(l.size <= oracle.DEFAULT_MAX_MEMBERS for l in a)



def _assert_fresh(lang):
    # equal space, vocabulary, mode and rows, and the same predicate masks,
    # which the dataclass equality leaves out
    fresh = oracle.Language.derive(lang.space, lang.vocab)
    assert lang == fresh and lang._pred == fresh._pred


def test_generated_languages_equal_fresh_derives():
    # the generators derive each key (predicate count, set of state rows)
    # once per call and build the later languages of a key from the first
    # one's rows and predicate masks
    langs = [*oracle.all_derived_languages(3, 4), *itertools.chain.from_iterable(
        oracle.sample_derived_languages(4, 50, seed=seed, max_vocab=5)
        for seed in ("weaklab-verify", "perfbench-3.1", "x7"))]
    assert len(langs) == 183 + 3 * 50
    for lang in langs:
        _assert_fresh(lang)
    # one rows tuple per key within each call: fewer derives than languages
    exhaustive = langs[:183]
    assert len({id(lang.rows) for lang in exhaustive}) == len({
        state_row_key(tuple(p.truth for p in lang.vocab), lang.space.size)
        for lang in exhaustive}) == 66


def test_no_predicates_and_a_false_predicate_keep_their_own_masks():
    # on one state, tables () and (0,) both derive the rows (0,): the empty
    # statement only.  Their state rows are equal as ints, their predicate
    # counts are not, so they share no vocabulary and no predicate masks
    none, false, true = oracle.all_derived_languages(1, 1)
    assert [p.truth for p in false.vocab] == [0] and [p.truth for p in true.vocab] == [1]
    assert none.rows == false.rows == (0,) and true.rows == (0, 1)
    assert (none._pred, false._pred, true._pred) == ([], [0], [0b10])
    assert len(none.vocab) == 0 and none.vocab != false.vocab
    for lang in (none, false, true):
        _assert_fresh(lang)
    # a space of no states has no state rows: no rows with no predicates or
    # with the one table there is, and each keeps its own predicate masks
    universes = oracle._Universes()
    langs = [universes.language(StateSpace(states), tables)
             for states, tables in (((), ()), ((), (0,)), (("s0",), ()))]
    assert [(lang.rows, lang._pred) for lang in langs] == [((), []), ((), [0]), ((0,), [])]
    assert len(universes) == 3


@pytest.mark.parametrize("max_members", [oracle.DEFAULT_MAX_MEMBERS, 4])
@pytest.mark.parametrize("seed", ["weaklab-verify", "perfbench-3.1", "x7"])
def test_sampler_keeps_the_draws_a_full_derive_keeps(monkeypatch, seed, max_members):
    # a draw's derive stops past max_members, and a key seen before, kept or
    # not, is not derived again; the kept draws are those that a full derive
    # of every draw keeps by size.  At 4 members some refused keys recur
    draws = sampler_draws(4, 50, seed, max_vocab=5, max_members=max_members)
    caps = []
    derive = oracle.Language.derive.__func__
    monkeypatch.setattr(oracle.Language, "derive", classmethod(
        lambda cls, space, vocab, cap=DEFAULT_LANGUAGE_CAP: caps.append(cap)
        or derive(cls, space, vocab, cap)))
    langs = oracle.sample_derived_languages(4, 50, seed=seed, max_vocab=5,
                                            max_members=max_members)
    assert [tuple(p.truth for p in lang.vocab) for lang in langs] == [t for t, ok in draws if ok]
    keys = [state_row_key(tables, 4) for tables, _ in draws]
    refused = [key for key, (_, ok) in zip(keys, draws) if not ok]
    assert caps == [max_members] * len(set(keys))
    assert len(set(refused)) < len(refused) or max_members == oracle.DEFAULT_MAX_MEMBERS

# ---------------------------------------------------------------------------
# fixtures and prior report


def test_divergence_fixture_self_checks(fx):
    assert fx.weakness_values[fx.weakness_winner] == 5
    assert fx.weakness_values[fx.mdl_winner] == 3
    names = [fx.lang.format_statement(d) for d in fx.task.decisions]
    assert names == ["{a,b,c,d,j,k,z}", "{b,d,e,g,j,k,z}"]


def test_prior_report_tiny(tiny):
    rows = oracle.prior_report(tiny)
    assert [(r.anchor.members, r.total) for r in rows] == [
        ((), Fraction(1)),
        ((0,), Fraction(1, 2)),
        ((1,), Fraction(1, 2)),
    ]


def test_prior_report_fixture_has_8_rows(fx):
    assert len(oracle.prior_report(fx.lang)) == 8


def test_prior_report_singleton_language():
    space = StateSpace(("s0",))
    lang = oracle.Language.derive(space, Vocabulary(()))
    rows = oracle.prior_report(lang)
    assert len(rows) == 1
    assert rows[0].total == 1  # 2^1 / 2^1

