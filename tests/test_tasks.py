import random

import pytest

from weaklab import (
    DegenerateTaskError,
    IncompatibleLanguageError,
    InvalidTaskError,
    MembershipError,
    NoDecisionError,
    Statement,
    TaskPreconditionError,
    attempt_task,
    is_child,
    make_task,
)
from conftest import random_language
from _oracles import enumerate_tasks, naive_models


def S(*idx):
    return Statement.of(idx)


def by_names(lang, *names):
    return Statement.of(lang.vocab.index_of(n) for n in names)


# ---------------------------------------------------------------------------
# construction


def test_fixture_task_valid(fx):
    assert len(fx.task.situations) == 2
    assert len(fx.task.decisions) == 2


def test_make_task_tiny_valid(tiny):
    t = make_task(tiny, [S()], [S(0)])
    assert tiny.statements_of(t.reach) == tiny.statements


def test_make_task_unreachable_decision(tiny):
    with pytest.raises(InvalidTaskError) as err:
        make_task(tiny, [S(0)], [S(1)])
    assert "{1}" in str(err.value)


def test_make_task_degenerate(tiny):
    with pytest.raises(DegenerateTaskError):
        make_task(tiny, [], [S(0)])
    with pytest.raises(DegenerateTaskError):
        make_task(tiny, [S(0)], [])


def test_make_task_requires_proper_subset(tiny):
    with pytest.raises(InvalidTaskError):
        make_task(tiny, list(tiny.statements), [S()])


def test_situation_must_be_vocab_statement(tiny):
    with pytest.raises(MembershipError):
        make_task(tiny, [S(0, 1)], [S(0)])  # unsatisfiable conjunction


# ---------------------------------------------------------------------------
# models


def test_fixture_models(fx):
    assert fx.task.models() == fx.models
    assert fx.task.is_model(by_names(fx.lang, "z"))
    assert not fx.task.is_model(by_names(fx.lang, "b", "c", "d", "e", "k"))


def test_is_model_membership_error(fx):
    with pytest.raises(MembershipError):
        fx.task.is_model(by_names(fx.lang, "j"))


def test_models_tiny_single(tiny):
    t = make_task(tiny, [S()], [S(0)])
    assert t.models() == (S(0),)


def test_models_tiny_empty_hypothesis_wins(tiny):
    t = make_task(tiny, [S()], list(tiny.statements))
    assert t.models() == (S(),)


def test_models_cache_stable(fx):
    first = fx.task.models()
    assert fx.task.models() is first


def test_models_match_naive_route():
    rng = random.Random(99)
    for _ in range(25):
        lang = random_language(rng, max_states=3, max_vocab=3)
        if lang.size < 2:
            continue
        census = enumerate_tasks(lang, cap=100_000)
        for task in census.tasks[:: max(1, len(census.tasks) // 17)]:
            universe = [frozenset(s.members) for s in lang.statements]
            naive = naive_models(
                universe,
                [frozenset(s.members) for s in task.situations],
                {frozenset(d.members) for d in task.decisions},
            )
            assert [frozenset(m.members) for m in task.models()] == naive


# ---------------------------------------------------------------------------
# attempting situations


def test_attempt_fixture_pair(fx):
    d = attempt_task(fx.task, by_names(fx.lang, "j", "k"), by_names(fx.lang, "a", "b"))
    assert fx.lang.format_statement(d.statement) == "{a,b,c,d,j,k,z}"
    assert d.correct


def test_attempt_fixture_singleton(fx):
    d = attempt_task(fx.task, by_names(fx.lang, "z"), by_names(fx.lang, "b", "e"))
    assert fx.lang.format_statement(d.statement) == "{b,d,e,g,j,k,z}"
    assert d.correct


def test_attempt_no_decision(tiny):
    t = make_task(tiny, [S(0)], [S(0)])
    with pytest.raises(NoDecisionError):
        attempt_task(t, S(1), S(0))


def test_attempt_requires_situation(tiny):
    t = make_task(tiny, [S(0)], [S(0)])
    with pytest.raises(TaskPreconditionError):
        attempt_task(t, S(0), S(1))


def test_model_always_decides_correctly():
    rng = random.Random(31)
    for _ in range(20):
        lang = random_language(rng, max_states=3, max_vocab=3)
        if lang.size < 2:
            continue
        census = enumerate_tasks(lang, cap=100_000)
        for task in census.tasks[:: max(1, len(census.tasks) // 11)]:
            for h in task.models():
                for s in task.situations:
                    try:
                        d = attempt_task(task, h, s)
                    except NoDecisionError:
                        continue
                    assert d.correct


# ---------------------------------------------------------------------------
# child/parent


def test_child_of_fixture_task(fx):
    small = make_task(fx.lang, [fx.task.situations[0]], [fx.task.decisions[0]])
    assert is_child(small, fx.task)
    assert not is_child(fx.task, small)


def test_child_irreflexive(fx):
    assert not is_child(fx.task, fx.task)


def test_child_decision_containment_required(tiny):
    a = make_task(tiny, [S(0)], [S(0)])
    w = make_task(tiny, [S(0), S(1)], [S(1)])
    assert not is_child(a, w)


def test_child_needs_same_language(tiny, fx):
    a = make_task(tiny, [S()], [S(0)])
    with pytest.raises(IncompatibleLanguageError):
        is_child(a, fx.task)


def test_model_extension_contains_decisions():
    rng = random.Random(61)
    for _ in range(15):
        lang = random_language(rng, max_states=3, max_vocab=3)
        if lang.size < 2:
            continue
        census = enumerate_tasks(lang, cap=100_000)
        for task in census.tasks[:: max(1, len(census.tasks) // 7)]:
            for h in task.models():
                assert set(task.decisions) <= set(lang.extension(h))
