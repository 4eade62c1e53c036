import itertools
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
    attempt_task,
    induce,
    is_child,
    make_task,
    oracle,
    specdsl,
)
from conftest import random_language, spec_path

from _oracles import (
    naive_derived_statements,
    naive_extension,
    naive_language,
    naive_models,
    naive_predicate_masks,
)


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


@pytest.mark.parametrize("index", [2, 9])
def test_explicit_bad_index(tiny, index):
    # checked before the member rows are packed: 1 << 9 does not fit the
    # one-byte row of a two-predicate vocabulary, 1 << 2 would fit unseen
    with pytest.raises(IndexError):
        Language.explicit(tiny.space, tiny.vocab, [S(), S(0, index)])


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


def test_bit_space_is_its_state_names():
    # a bit-string space carries nothing beyond its names, so a
    # spec-compiled language is the same as one built by hand
    names = ("00", "01", "10", "11")
    assert StateSpace.bits(2) == StateSpace(names)
    spec = specdsl.compile_text("width 2; pred p := b0; pred q := !b1;").language
    vocab = Vocabulary((Predicate("p", 0b1100), Predicate("q", 0b0101)))
    assert spec.same_as(Language.derive(StateSpace(names), vocab))


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
    got = lang.statements_of(fx.task.reach)
    assert {lang.format_statement(s) for s in got} == {
        "{a,b,c,d,j,k,z}",
        "{b,c,d,e,k}",
        "{b,d,e,g,j,k,z}",
    }


def test_extension_of_set_empty(tiny):
    # the union of no extension masks is the empty mask
    assert tiny.statements_of(0) == ()


def test_extension_of_set_singleton(tiny):
    assert tiny.statements_of(make_task(tiny, [S(0)], [S(0)]).reach) == (S(0),)


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
            if set(a) <= set(b):
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
        maximal = all(not (set(s) < set(t)) for t in stmts)
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

    def extension_of_set(stmts):
        mask = 0
        for s in stmts:
            mask |= lang.extension_mask(s)
        return lang.statements_of(mask)

    for s in vocab_stmts:
        got = lang.statements_of(lang.extension_mask(s))
        assert {frozenset(t.members) for t in got} == naive([s])
    picked = rng.sample(vocab_stmts, rng.randint(0, len(vocab_stmts)))
    got = extension_of_set(picked)
    assert list(got) == sorted(got)
    assert {frozenset(t.members) for t in got} == naive(picked)

    situations = rng.sample(vocab_stmts, rng.randint(1, len(vocab_stmts)))
    if set(situations) == set(lang.statements):
        situations.pop()
    reachable = extension_of_set(situations)
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


# ---------------------------------------------------------------------------
# derive: statements, index and predicate masks in one pass


@st.composite
def _windowed_tables(draw, n):
    """Truth tables of n predicates over n + 3 states, each inside a window
    of 4 states, so no state holds more than 4 predicates and the language
    stays small at any n; shuffled so that predicates sharing a state lie
    in different bytes of a member row."""
    tables = [draw(st.integers(0, 15)) << s for s in range(n)]
    return draw(st.permutations(tables))


# 8 predicates fill one byte of a member row; 65 need more than 64 bits
@pytest.mark.parametrize("n", [0, 1, 8, 9, 16, 17, 65])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_derive_matches_naive_route(n, data):
    tables = data.draw(_windowed_tables(n))
    space = StateSpace(tuple(f"s{i}" for i in range(n + 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero or shifted tables can repeat
        vocab = Vocabulary(tuple(Predicate(f"p{i}", t) for i, t in enumerate(tables)))
    lang = Language.derive(space, vocab)
    expected = naive_derived_statements(tables, space.size)
    assert [s.members for s in lang.statements] == expected
    assert lang.statements == tuple(Statement(m) for m in expected)
    assert [lang.position(s) for s in lang.statements] == list(range(len(expected)))
    masks = naive_predicate_masks(expected, n)
    assert lang._pred == masks
    # an explicit universe builds the same masks through the same rows
    assert Language.explicit(space, vocab, lang.statements)._pred == masks
    # the cap admits exactly N statements
    N = len(expected)
    assert Language.derive(space, vocab, cap=N).same_as(lang)
    if N > 1:
        with pytest.raises(CapacityError):
            Language.derive(space, vocab, cap=N - 1)


def test_derived_statements_are_slotted_and_still_validated():
    lang = Language.derive(StateSpace(("s0", "s1")), Vocabulary((Predicate("p", 1),)))
    assert not hasattr(lang.statements[1], "__dict__")
    with pytest.raises(ValueError):
        Statement((1, 0))
    with pytest.raises(ValueError):
        Statement((-1,))


# ---------------------------------------------------------------------------
# membership and position without an index, against a naive dict


def _check_positions(lang: Language, expected, probes):
    """Membership, position, weakness and extension of every probe agree
    with the naive {members: position} dict of the expected member list."""
    naive = {m: i for i, m in enumerate(expected)}
    assert lang.size == len(expected)
    for s in map(Statement, probes):
        assert (s in lang) == (s.members in naive), s
        if s.members in naive:
            assert lang.position(s) == naive[s.members]
            assert lang.statements_of(1 << lang.position(s)) == (s,)
        else:
            for method in (lang.position, lang.weakness, lang.extension):
                with pytest.raises(MembershipError):
                    method(s)


def _compile_add8():
    with open(spec_path("add8.wl"), encoding="utf-8") as fh:
        return specdsl.compile_text(fh.read())


def _subsets(n):
    """Every sorted index tuple over range(n)."""
    return [m for k in range(n + 1) for m in itertools.combinations(range(n), k)]


def test_positions_of_every_small_derived_language():
    # every subset of the vocabulary plus one index past it: members,
    # unsatisfiable subsets, the empty statement, out-of-range indices
    for lang in oracle.all_derived_languages(3, 3):
        tables = [p.truth for p in lang.vocab]
        expected = naive_derived_statements(tables, lang.space.size)
        _check_positions(lang, expected, _subsets(len(tables) + 1))


def test_positions_of_add8():
    lang = _compile_add8().language
    n = len(lang.vocab)
    expected = naive_derived_statements([p.truth for p in lang.vocab], lang.space.size)
    rng = random.Random(15)
    # members with one more index: other members, unsatisfiable statements
    # (a bit and its negation) and indices past the vocabulary
    extended = [tuple(sorted({*m, rng.randrange(n + 2)}))
                for m in rng.sample(expected, 600)]
    probes = expected + extended + [m for m in _subsets(n + 1) if len(m) <= 2]
    _check_positions(lang, expected, probes)
    assert "statements" not in lang.__dict__


@pytest.mark.parametrize("listed", [
    [(0, 1)],  # {0} and the empty statement unlisted, their superset listed
    [(), (0, 1)],  # the empty statement listed, {0} and {1} not
    [(1,), (0, 1), (0, 2)],
    [(0,), (2,)],
])
def test_positions_of_explicit_languages_with_gaps(listed):
    space = StateSpace(("s0", "s1", "s2"))
    # {1, 2} and {0, 1, 2} are unsatisfiable
    vocab = Vocabulary((Predicate("p0", 0b011), Predicate("p1", 0b001),
                        Predicate("p2", 0b110)))
    lang = Language.explicit(space, vocab, map(Statement, listed))
    _check_positions(lang, sorted(listed, key=lambda m: (len(m), m)), _subsets(4))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_positions_of_random_explicit_languages(rng):
    derived = random_language(rng, max_states=4, max_vocab=4)
    members = [s.members for s in derived.statements]
    listed = sorted(rng.sample(members, rng.randint(0, len(members))),
                    key=lambda m: (len(m), m))
    lang = Language.explicit(derived.space, derived.vocab, map(Statement, listed))
    _check_positions(lang, listed, _subsets(len(derived.vocab) + 1))


def test_positions_of_languages_over_no_states():
    space = StateSpace(())
    vocab = Vocabulary((Predicate("p", 0),))
    for lang in (Language.derive(space, Vocabulary(())), Language.derive(space, vocab),
                 Language.explicit(space, vocab, [])):
        _check_positions(lang, [], _subsets(2))
        assert lang.statements == () and lang.statements_of(0) == ()


def test_induce_on_add8_builds_no_statement_tuple():
    # The 6,561-statement language of add8.wl is read through masks and the
    # few statements a task needs, never as a whole tuple of Statements.
    compiled = _compile_add8()
    lang = compiled.language
    child, parent = compiled.tasks["add_child"], compiled.tasks["add_parent"]
    n3 = Statement.of([lang.vocab.index_of("n3")])
    for proxy in ("weakness", "mdl"):
        assert induce(child, proxy) == n3
    models = [lang.format_statement(h) for h in child.models()]
    assert models == ["{n3}", "{n0,n3}", "{n3,n4}", "{n3,n5}", "{n0,n3,n4}",
                      "{n0,n3,n5}", "{n3,n4,n5}", "{n0,n3,n4,n5}"]
    assert [lang.position(h) for h in child.models()] == [
        8, 36, 98, 100, 266, 268, 528, 1088]
    assert lang.weakness(n3) == 2187
    assert attempt_task(child, n3, child.situations[0]).correct
    assert is_child(child, parent)
    assert "statements" not in lang.__dict__
