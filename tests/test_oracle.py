import math
import random
from fractions import Fraction

import pytest

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
from conftest import random_language
from _oracles import (
    enumerate_tasks,
    naive_census_count,
    naive_extension,
    per_task_optimality,
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
    assert oracle.census_size(tiny) == 26


def test_census_tasks_are_valid(tiny, fx):
    for lang in (tiny, fx.lang):
        universe = [frozenset(s.members) for s in lang.statements]
        for t in enumerate_tasks(lang).tasks:
            naive = set()
            for s in t.situations:
                naive |= naive_extension(universe, frozenset(s.members))
            reachable = lang.statements_of(t.reach)
            assert {frozenset(z.members) for z in reachable} == naive


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


def _task_of(lang, record):
    return make_task(
        lang, lang.statements_of(record.situations), lang.statements_of(record.decisions)
    )


def test_tiny_verify_known_row(tiny):
    # task S={{p}}, D={{p}} has models {} and {p}; both generalise to the
    # same 2 of its 6 census parents; formula values 1 and 1/4
    p = 1 << tiny.position(S(0))
    (record,) = [
        r for r in oracle.census_tasks(tiny) if r.situations == p and r.decisions == p
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
        records = list(oracle.census_tasks(lang))
        assert len(records) == oracle.verify_weakness_optimality(lang).tasks_checked
        assert all(len(set(r.parent_counts)) == 1 for r in records)


def test_single_model_tasks_trivially_clean(tiny):
    for r in oracle.census_tasks(tiny):
        assert all(count <= r.total_parents for count in r.parent_counts)


def test_deviation_count_matches_fractions(tiny):
    # the check counts deviations with shifted integers; recount them with
    # Fractions from the record and the task-level formula
    rng = random.Random(811)
    while True:
        lang = random_language(rng, max_states=3, max_vocab=3)
        if lang.size >= 4 and oracle.census_size(lang) <= 2_000:
            break
    for lang in (tiny, lang):
        expected = 0
        for r in oracle.census_tasks(lang):
            task = _task_of(lang, r)
            for h, count in zip(r.models, r.parent_counts):
                formula = generalisation_probability(task, lang.statements[h])
                if r.total_parents and Fraction(count, r.total_parents) != formula:
                    expected += 1
        assert expected > 0
        assert oracle.verify_weakness_optimality(lang).deviation_count == expected


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
        for r in oracle.census_tasks(lang):
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
        assert list(oracle.census_tasks(lang)) == list(walk_census_tasks(lang))


def test_sweep_matches_per_task_reference(tiny, fx):
    # the per-situation sweep against the per-task check over the census
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


def test_verify_reports_violation_in_loop(tiny, monkeypatch):
    # every model of a census task has the same parent count, so lower the
    # weakness-maximal model's count in one two-model task of the sweep:
    # S = D = {{p}}, whose models are {} (weakness 3) and {p} (weakness 1)
    p = 1 << tiny.position(S(0))
    empty, only_p = tiny.position(S()), tiny.position(S(0))
    sweep = oracle._census_by_situations

    def tampered(ext, reach):
        for s_mask, zs, count, above, groups, multi in sweep(ext, reach):
            if s_mask == p:
                assert groups[p] == [empty, only_p] and multi[p] == (count, count)
                multi = {**multi, p: (count - 1, count)}
            yield s_mask, zs, count, above, groups, multi

    monkeypatch.setattr(oracle, "_census_by_situations", tampered)
    rep = oracle.verify_weakness_optimality(tiny)
    (v,) = rep.violations
    assert v.situations == tuple(s.members for s in tiny.statements_of(p))
    assert v.decisions == tuple(s.members for s in tiny.statements_of(p))
    assert (v.weak_model, v.weak_count, v.best_model, v.best_count) == ((), 1, (0,), 2)
    assert per_task_optimality(tiny) == rep


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

