import random
from fractions import Fraction

import pytest

from weaklab import CapacityError, Statement, StateSpace, Vocabulary, oracle
from conftest import random_language
from _oracles import enumerate_tasks, naive_census_count, naive_extension


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
    assert oracle.census_size(tiny) == 26


def test_census_tasks_are_valid(tiny, fx):
    for lang in (tiny, fx.lang):
        universe = [frozenset(s.members) for s in lang.statements]
        for t in enumerate_tasks(lang).tasks:
            naive = set()
            for s in t.situations:
                naive |= naive_extension(universe, frozenset(s.members))
            assert {frozenset(z.members) for z in t.reachable} == naive


def test_census_cap(fx):
    with pytest.raises(CapacityError):
        enumerate_tasks(fx.lang, cap=10)
    with pytest.raises(CapacityError):
        oracle.census_size(fx.lang, cap=10)


def test_empty_language_has_no_tasks():
    space = StateSpace(())
    lang = oracle.Language.derive(space, Vocabulary(()))
    assert enumerate_tasks(lang).count == 0


def test_census_size_matches_enumeration():
    rng = random.Random(2024)
    for _ in range(20):
        lang = random_language(rng, max_states=3, max_vocab=3)
        assert oracle.census_size(lang) == enumerate_tasks(lang).count


# ---------------------------------------------------------------------------
# weakness-optimality verification


def test_tiny_verify_no_violations(tiny):
    rep = oracle.verify_weakness_optimality(tiny)
    assert rep.violations == []
    assert rep.census_size == 26
    assert rep.tasks_checked == 14
    assert rep.rows_total == sum(1 for _ in rep.rows)


def test_tiny_verify_known_row(tiny):
    # task S={{p}}, D={{p}} has models {} and {p}; both generalise to the
    # same 2 of its 6 census parents; formula values 1 and 1/4
    rep = oracle.verify_weakness_optimality(tiny)
    rows = [
        r
        for r in rep.rows
        if r.situations == ((0,),) and r.decisions == ((0,),)
    ]
    assert len(rows) == 2
    by_model = {r.model: r for r in rows}
    empty, single = by_model[()], by_model[(0,)]
    assert empty.parent_count == single.parent_count == 2
    assert empty.total_parents == single.total_parents == 6
    assert empty.formula == 1
    assert single.formula == Fraction(1, 4)
    assert empty.empirical == single.empirical == Fraction(1, 3)


def test_models_share_parent_counts(tiny, fx):
    # observed in exhaustive sweeps: under the census measure every model of
    # a task attains the same parent count, which is why violations are zero
    for lang in (tiny, fx.lang):
        rep = oracle.verify_weakness_optimality(lang, max_rows=10**6)
        per_task = {}
        for r in rep.rows:
            per_task.setdefault((r.situations, r.decisions), set()).add(r.parent_count)
        assert all(len(counts) == 1 for counts in per_task.values())


def test_fixture_language_sweep(fx):
    rep = oracle.verify_weakness_optimality(fx.lang, extra_tasks=[fx.task])
    assert rep.violations == []
    extra = [r for r in rep.rows if r.situations == tuple(s.members for s in fx.task.situations)]
    assert len(extra) == 2
    by_model = {r.model: r for r in extra}
    pair = by_model[fx.weakness_winner.members]
    single = by_model[fx.mdl_winner.members]
    # the fixture's situations live outside the universe, so it has no
    # census parents; the order check still holds
    assert pair.parent_count >= single.parent_count
    assert pair.formula == Fraction(1, 4)
    assert single.formula == Fraction(1, 16)


def test_single_model_tasks_trivially_clean(tiny):
    rep = oracle.verify_weakness_optimality(tiny)
    for r in rep.rows:
        assert r.parent_count <= r.total_parents


def test_parent_counts_match_object_level_scan(tiny):
    # dual route: recount parents with the task-level child relation and
    # model predicate, no bitmask machinery
    from weaklab import is_child

    langs = [tiny]
    rng = random.Random(505)
    while len(langs) < 4:
        cand = random_language(rng, max_states=3, max_vocab=2)
        if 2 <= cand.size and oracle.census_size(cand) <= 400:
            langs.append(cand)
    for lang in langs:
        census = enumerate_tasks(lang).tasks
        rep = oracle.verify_weakness_optimality(lang, max_rows=10**6)
        for r in rep.rows:
            task = next(
                t
                for t in census
                if tuple(s.members for s in t.situations) == r.situations
                and tuple(d.members for d in t.decisions) == r.decisions
            )
            h = oracle.Statement(r.model)
            assert task.is_model(h)
            parents = [w for w in census if w is not task and is_child(task, w)]
            assert r.total_parents == len(parents)
            assert r.parent_count == sum(1 for w in parents if w.is_model(h))


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
    assert all(oracle.census_size(l) <= oracle.DEFAULT_CENSUS_CAP for l in a)


# ---------------------------------------------------------------------------
# fixtures and prior report


def test_divergence_fixture_self_checks(fx):
    assert fx.weakness_values[fx.weakness_winner] == 5
    assert fx.weakness_values[fx.mdl_winner] == 3
    names = [fx.lang.format_statement(d) for d in fx.task.decisions]
    assert names == ["{a,b,c,d,j,k,z}", "{b,d,e,g,j,k,z}"]


def test_prior_report_tiny(tiny):
    rows = oracle.prior_report(tiny)
    assert [(r.anchor, r.total) for r in rows] == [
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


def test_prior_report_cap(fx):
    with pytest.raises(CapacityError):
        oracle.prior_report(fx.lang, cap=4)
