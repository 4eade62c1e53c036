import random
from fractions import Fraction

import pytest

from weaklab import (
    NoModelError,
    Statement,
    TaskPreconditionError,
    exclusive_family_sum,
    generalisation_probability,
    induce,
    make_task,
    prior,
)
from conftest import random_language
from _oracles import enumerate_tasks, extension, mutually_exclusive


def S(*idx):
    return Statement.of(idx)


def by_names(lang, *names):
    return Statement.of(lang.vocab.index_of(n) for n in names)


# ---------------------------------------------------------------------------
# induce


def test_induce_winners_diverge(fx):
    assert induce(fx.task, "weakness") == fx.weakness_winner
    assert induce(fx.task, "inverse-description-length") == fx.mdl_winner
    assert induce(fx.task, "mdl") == fx.mdl_winner


def test_induce_singleton_model_set(tiny):
    t = make_task(tiny, [S()], [S(0)])
    assert induce(t, "weakness") == S(0)
    assert induce(t, "mdl") == S(0)


def test_induce_empty_model_set(tiny):
    t = make_task(tiny, [S()], [S(0), S(1)])
    assert t.models() == ()
    with pytest.raises(NoModelError):
        induce(t, "weakness")


def test_induce_argmax_property():
    rng = random.Random(55)
    for _ in range(20):
        lang = random_language(rng, max_states=3, max_vocab=3)
        if lang.size < 2:
            continue
        census = enumerate_tasks(lang, cap=100_000)
        for task in census.tasks[:: max(1, len(census.tasks) // 9)]:
            ms = task.models()
            if not ms:
                continue
            # the earliest model in global order wins ties
            top = max(lang.weakness(m) for m in ms)
            assert induce(task, "weakness") == next(
                m for m in ms if lang.weakness(m) == top
            )
            assert induce(task, "mdl") == next(
                m for m in ms if len(m) == min(len(m) for m in ms)
            )


def test_induce_deterministic(fx):
    assert induce(fx.task, "weakness") == induce(fx.task, "weakness")


# ---------------------------------------------------------------------------
# generalisation probability


def test_probability_fixture_values(fx):
    assert generalisation_probability(fx.task, fx.weakness_winner) == Fraction(1, 4)
    assert generalisation_probability(fx.task, fx.mdl_winner) == Fraction(1, 16)


def test_probability_empty_hypothesis_is_one(tiny):
    t = make_task(tiny, [S()], list(tiny.statements))
    assert generalisation_probability(t, S()) == 1


def test_probability_requires_model(fx):
    with pytest.raises(TaskPreconditionError):
        generalisation_probability(fx.task, by_names(fx.lang, "z", "j", "k", "a", "b", "c", "d"))


def test_probability_in_unit_interval():
    rng = random.Random(77)
    for _ in range(15):
        lang = random_language(rng, max_states=3, max_vocab=3)
        if lang.size < 2:
            continue
        census = enumerate_tasks(lang, cap=100_000)
        for task in census.tasks[:: max(1, len(census.tasks) // 7)]:
            for h in task.models():
                p = generalisation_probability(task, h)
                assert 0 < p <= 1
                outside = set(lang.statements) - set(lang.statements_of(task.reach))
                covers_outside = outside <= set(extension(lang, h))
                assert (p == 1) == covers_outside


# ---------------------------------------------------------------------------
# prior


def test_prior_tiny_values(tiny):
    got = [prior(tiny, s) for s in tiny.statements]
    assert got == [Fraction(1), Fraction(1, 4), Fraction(1, 4)]


def test_prior_fixture_value(fx):
    assert prior(fx.lang, fx.weakness_winner) == Fraction(1, 8)


def test_prior_monotone_in_weakness():
    rng = random.Random(88)
    for _ in range(20):
        lang = random_language(rng, max_states=4, max_vocab=4)
        for a in lang.statements:
            for b in lang.statements:
                if lang.weakness(a) <= lang.weakness(b):
                    assert prior(lang, a) <= prior(lang, b)


# ---------------------------------------------------------------------------
# mutual exclusivity


def test_mutually_exclusive_examples(tiny, fx):
    assert mutually_exclusive(tiny, S(0), S(1))
    assert not mutually_exclusive(tiny, S(), S(0))
    assert mutually_exclusive(fx.lang, fx.mdl_winner, fx.weakness_winner)


def test_family_sums_tiny(tiny):
    rows = [exclusive_family_sum(tiny, s) for s in tiny.statements]
    assert rows[0].members == (S(),)
    assert rows[0].total == 1
    assert rows[1].members == (S(0), S(1))
    assert rows[1].total == Fraction(1, 2)
    assert rows[2].total == Fraction(1, 2)


def test_family_sum_fixture_anchor_z(fx):
    # {z} with {j,k} and the two incomparable maximal statements:
    # priors (8 + 32 + 2 + 2) / 256
    rep = exclusive_family_sum(fx.lang, fx.mdl_winner)
    assert len(rep.members) == 4
    assert rep.total == Fraction(11, 64)
    for a in rep.members:
        for b in rep.members:
            if a != b:
                assert mutually_exclusive(fx.lang, a, b)


def test_family_is_maximal(fx):
    rep = exclusive_family_sum(fx.lang, fx.weakness_winner)
    fam = set(rep.members)
    for s in fx.lang.statements:
        if s in fam:
            continue
        assert not all(mutually_exclusive(fx.lang, s, f) for f in fam)
