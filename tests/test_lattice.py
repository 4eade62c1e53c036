import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from weaklab import (
    CapacityError,
    Language,
    MembershipError,
    Predicate,
    StateSpace,
    Statement,
    Vocabulary,
    VocabularyError,
    induce,
    make_task,
)
from conftest import random_language

from _oracles import naive_extension, naive_language, naive_models


def S(*idx):
    return Statement.of(idx)


def by_names(lang, *names):
    return Statement.of(lang.vocab.index_of(n) for n in names)


# ---------------------------------------------------------------------------
# sat_set


def test_sat_set_pair_fixture(fx):
    got = fx.lang.sat_set(by_names(fx.lang, "j", "k"))
    assert got == 0b111001  # s1, s4, s5, s6


def test_sat_set_empty_statement_is_all_states(tiny):
    assert tiny.sat_set(S()) == 0b11


def test_sat_set_disjoint_predicates_empty(tiny):
    assert not tiny.sat_set(S(0, 1))
    assert S(0, 1) not in tiny


def test_sat_set_bad_index(tiny):
    with pytest.raises(IndexError):
        tiny.sat_set(S(7))


# ---------------------------------------------------------------------------
# enumeration


def test_tiny_language_contents(tiny):
    assert tiny.size == 3
    assert tiny.statements == (S(), S(0), S(1))
    assert tiny.mode == "derived"


def test_capacity_error_names_cap(fx):
    with pytest.raises(CapacityError) as err:
        Language.derive(fx.lang.space, fx.lang.vocab, cap=10)
    assert err.value.cap == 10


def test_empty_state_space_gives_empty_language():
    space = StateSpace(())
    vocab = Vocabulary((Predicate("p", 0),))
    assert Language.derive(space, vocab).size == 0


def test_derived_equals_naive_subset_enumeration():
    rng = random.Random(1234)
    for _ in range(40):
        lang = random_language(rng, max_states=4, max_vocab=4)
        n = lang.space.size
        truth = [{i for i in range(n) if p.truth >> i & 1} for p in lang.vocab]
        expected = naive_language(truth, lang.space.size)
        assert sorted(frozenset(s.members) for s in lang.statements) == sorted(expected)


def test_enumeration_deterministic():
    rng1, rng2 = random.Random(9), random.Random(9)
    for _ in range(10):
        a = random_language(rng1)
        b = random_language(rng2)
        assert a.statements == b.statements


# ---------------------------------------------------------------------------
# extension


def test_extension_of_empty_is_whole_language(tiny):
    assert tiny.extension(S()) == tiny.statements


def test_extension_pair_fixture(fx):
    lang = fx.lang
    got = lang.extension(by_names(lang, "j", "k"))
    assert len(got) == 5
    names = {lang.format_statement(s) for s in got}
    assert "{j,k}" in names and "{a,b,c,d,j,k,z}" in names


def test_extension_singleton_fixture(fx):
    got = fx.lang.extension(by_names(fx.lang, "z"))
    assert len(got) == 3


def test_extension_requires_membership(fx):
    with pytest.raises(MembershipError):
        fx.lang.extension(by_names(fx.lang, "j"))


def test_extension_of_set_fixture_situations(fx):
    lang = fx.lang
    got = lang.extension_of_set(fx.task.situations)
    assert {lang.format_statement(s) for s in got} == {
        "{a,b,c,d,j,k,z}",
        "{b,c,d,e,k}",
        "{b,d,e,g,j,k,z}",
    }


def test_extension_of_set_empty(tiny):
    assert tiny.extension_of_set([]) == ()


def test_extension_of_set_singleton(tiny):
    assert tiny.extension_of_set([S(0)]) == (S(0),)


# ---------------------------------------------------------------------------
# proxies


def test_weakness_values(fx, tiny):
    assert fx.lang.weakness(by_names(fx.lang, "j", "k")) == 5
    assert fx.lang.weakness(by_names(fx.lang, "z")) == 3
    assert tiny.weakness(S()) == tiny.size == 3


def test_description_length():
    assert len(S(10)) == 1
    assert len(S(8, 9)) == 2
    assert len(S()) == 0


def test_proxy_values(fx):
    # induce orders models by weakness, or by description length under
    # either of its names; any other name is refused
    assert [fx.lang.weakness(m) for m in fx.models] == [3, 5]
    assert [len(m) for m in fx.models] == [1, 2]
    assert induce(fx.task, "inverse-description-length") == fx.models[0]
    with pytest.raises(ValueError):
        induce(fx.task, "shortest")


# ---------------------------------------------------------------------------
# vocabulary hygiene


def test_duplicate_name_rejected():
    t = 0b01
    with pytest.raises(VocabularyError):
        Vocabulary((Predicate("p", t), Predicate("p", t)))


@pytest.mark.parametrize("truth", [1 << 2, -1])
def test_truth_table_outside_the_space_rejected(truth):
    space = StateSpace(("s0", "s1"))
    vocab = Vocabulary((Predicate("p", 0b01), Predicate("q", truth)))
    with pytest.raises(VocabularyError):
        Language.derive(space, vocab)
    with pytest.raises(VocabularyError):
        Language.explicit(space, vocab, [S(0)])


def test_duplicate_truth_table_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Vocabulary((Predicate("p", 0b01), Predicate("q", 0b01)))
    assert any("identical truth" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# lattice laws (randomized, plus hypothesis variants)


def _check_laws(lang: Language):
    stmts = lang.statements
    ext = {s: set(lang.extension(s)) for s in stmts}
    for a in stmts:
        # reflexivity
        assert a in ext[a]
        for b in stmts:
            if a.issubset(b):
                # antitone
                assert ext[b] <= ext[a]
            u = S(*a.members, *b.members)
            if lang.is_statement(u):
                # semantic homomorphism
                assert lang.sat_set(u) == lang.sat_set(a) & lang.sat_set(b)
    if lang.mode == "derived" and lang.size:
        assert lang.weakness(S()) == lang.size
    for s in stmts:
        w = lang.weakness(s)
        assert w >= 1
        maximal = all(not (s.issubset(t) and s != t) for t in stmts)
        assert (w == 1) == maximal


def test_lattice_laws_seeded_sample():
    rng = random.Random(777)
    for _ in range(60):
        _check_laws(random_language(rng, max_states=4, max_vocab=4))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 15), max_size=4), st.randoms())
def test_lattice_laws_hypothesis(n_states, tables, _rng):
    space = StateSpace(tuple(f"s{i}" for i in range(n_states)))
    mask = (1 << n_states) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vocab = Vocabulary(
            tuple(
                Predicate(f"p{i}", t & mask)
                for i, t in enumerate(tables)
            )
        )
        lang = Language.derive(space, vocab)
    _check_laws(lang)


def test_extension_matches_naive_route():
    rng = random.Random(4242)
    for _ in range(20):
        lang = random_language(rng, max_states=4, max_vocab=4)
        universe = [frozenset(s.members) for s in lang.statements]
        for s in lang.statements:
            naive = naive_extension(universe, frozenset(s.members))
            assert {frozenset(t.members) for t in lang.extension(s)} == naive


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_explicit_universe_masks_match_naive_route(rng):
    # An explicit universe is a random subset of a derived language, so
    # vocabulary statements outside it exist and position masks skip them.
    derived = random_language(rng, max_states=4, max_vocab=4)
    vocab_stmts = list(derived.statements)
    listed = rng.sample(vocab_stmts, rng.randint(1, len(vocab_stmts)))
    lang = Language.explicit(derived.space, derived.vocab, listed)
    universe = [frozenset(s.members) for s in lang.statements]

    def naive(stmts):
        out = set()
        for s in stmts:
            out |= naive_extension(universe, frozenset(s.members))
        return out

    for s in vocab_stmts:
        got = lang.statements_of(lang.extension_mask(s))
        assert {frozenset(t.members) for t in got} == naive([s])
    picked = rng.sample(vocab_stmts, rng.randint(0, len(vocab_stmts)))
    got = lang.extension_of_set(picked)
    assert list(got) == sorted(got)
    assert {frozenset(t.members) for t in got} == naive(picked)

    situations = rng.sample(vocab_stmts, rng.randint(1, len(vocab_stmts)))
    if set(situations) == set(lang.statements):
        situations.pop()
    reachable = lang.extension_of_set(situations)
    if not reachable:  # no member contains any situation: no task
        return
    decisions = rng.sample(reachable, rng.randint(1, len(reachable)))
    task = make_task(lang, situations, decisions)
    expected = naive_models(
        universe,
        [frozenset(s.members) for s in situations],
        {frozenset(d.members) for d in decisions},
    )
    assert [frozenset(m.members) for m in task.models()] == expected
    assert [h for h in lang.statements if task.is_model(h)] == list(task.models())
