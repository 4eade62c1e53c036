import itertools
import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from weaklab import (
    CapacityError,
    IncompatibleLanguageError,
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
from weaklab.lattice import row_members
from conftest import random_language, spec_path

from _oracles import (
    extension,
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


def test_capacity_error_comes_before_the_level_that_passes_the_cap_is_built():
    # 400 always-true predicates: level 1 fits a cap of 500, level 2 would
    # hold 79,800 sets of 2,048 states (about 47 MB if built in full)
    space = StateSpace(tuple(f"s{i}" for i in range(2048)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # identical truth tables
        vocab = Vocabulary(tuple(Predicate(f"p{i}", (1 << 2048) - 1) for i in range(400)))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            Language.derive(space, vocab, cap=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_a_derive_past_its_mask_budget_exits_75_while_it_is_small(
    tmp_path, monkeypatch, capsys
):
    # the 24 bit literals of width 12 derive 3^12 = 531,441 statements, within
    # the statement cap, holding up to 239,360 masks charged at 512 bytes at
    # once (levels 8 and 9, 122 MB).  A budget scaled down to 1 MiB stops the
    # derive in level 4, as the default 256 MiB stops the 32 literals of
    # width 16 (8 KB masks, 4,480 + 29,120 in levels 3 and 4) in level 4.
    from weaklab import cli, lattice

    literals = "".join(f"pred p{i} := b{i}; pred n{i} := !b{i};\n" for i in range(12))
    spec = tmp_path / "literals.wl"
    spec.write_text(f"width 12;\n{literals}task t {{ situations {{ {{}} }} decisions {{ {{p0}} }} }}\n")
    with pytest.raises(SystemExit):  # --help names the default budget
        cli.main(["induce", "--help"])
    assert f"{lattice.DERIVE_MASK_BYTES >> 20} MiB" in " ".join(capsys.readouterr().out.split())
    # only the statement cap, which the caller sets, comes with a hint to raise it
    assert cli.main(["induce", "--spec", str(spec), "--task", "t", "--cap", "10"]) == 75
    assert capsys.readouterr().err.endswith("exceeds cap of 10; raise --cap\n")
    monkeypatch.setattr(lattice, "DERIVE_MASK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        code = cli.main(["induce", "--spec", str(spec), "--task", "t"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 75
    assert capsys.readouterr().err == (
        "weaklab: derived language mask bytes exceeds cap of 1048576\n")
    assert peak < 4 << 20


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
    assert spec == Language.derive(StateSpace(names), vocab)


def test_languages_are_equal_by_space_vocabulary_mode_and_rows():
    # two derives of one vocabulary are equal, so their tasks compare; an
    # explicit universe of the same rows differs from both by its mode
    a, b = oracle.tiny_language(), oracle.tiny_language()
    assert a is not b and a == b
    explicit = Language.explicit(a.space, a.vocab, a.statements)
    assert explicit.rows == a.rows and explicit != a
    parent = make_task(b, [S(0), S(1)], [S(0), S(1)])
    assert is_child(make_task(a, [S(0)], [S(0)]), parent)
    with pytest.raises(IncompatibleLanguageError):
        is_child(make_task(explicit, [S(0)], [S(0)]), parent)


def test_enumeration_deterministic():
    rng1, rng2 = random.Random(9), random.Random(9)
    for _ in range(10):
        a = random_language(rng1)
        b = random_language(rng2)
        assert a.statements == b.statements


# ---------------------------------------------------------------------------
# extension


def test_extension_of_empty_is_whole_language(tiny):
    assert extension(tiny, S()) == tiny.statements


def test_extension_pair_fixture(fx):
    lang = fx.lang
    got = extension(lang, by_names(lang, "j", "k"))
    assert len(got) == 5
    names = {lang.format_statement(s) for s in got}
    assert "{j,k}" in names and "{a,b,c,d,j,k,z}" in names


def test_extension_singleton_fixture(fx):
    got = extension(fx.lang, by_names(fx.lang, "z"))
    assert len(got) == 3


def test_extension_requires_membership(fx):
    with pytest.raises(MembershipError):
        extension(fx.lang, by_names(fx.lang, "j"))


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
    ext = {s: set(extension(lang, s)) for s in stmts}
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
            assert {frozenset(t.members) for t in extension(lang, s)} == naive


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


# 8 predicates fill one byte of a member row, 64 one packed word; 65 and
# 129 need a second and a third 64-predicate slice
@pytest.mark.parametrize("n", [0, 1, 8, 9, 16, 17, 63, 64, 65, 129])
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
    assert Language.derive(space, vocab, cap=N) == lang
    if N > 1:
        with pytest.raises(CapacityError):
            Language.derive(space, vocab, cap=N - 1)


def test_derive_matches_naive_route_on_the_corpus_vocabulary():
    # add8's 16 bit literals over 256 states: 6,561 rows over nine levels
    compiled = _compile_add8().language
    tables = [p.truth for p in compiled.vocab]
    lang = Language.derive(compiled.space, compiled.vocab)
    expected = naive_derived_statements(tables, compiled.space.size)
    assert len(expected) == 3 ** 8
    assert list(map(row_members, lang.rows)) == expected
    assert lang._pred == naive_predicate_masks(expected, len(tables))


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
            for method in (lang.position, lang.weakness, lambda s: extension(lang, s)):
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


def _check_extension_masks(lang: Language):
    """Bit j of extension_masks()[i] is set exactly when member j contains
    member i, as set-based extensions of the member list say."""
    universe = [frozenset(s.members) for s in lang.statements]
    masks = lang.extension_masks()
    assert len(masks) == len(universe)
    for mask, s in zip(masks, universe):
        assert mask >> len(universe) == 0
        got = {t for j, t in enumerate(universe) if mask >> j & 1}
        assert got == naive_extension(universe, s)


def test_extension_masks_match_naive_route(tiny, fx):
    langs = list(oracle.all_derived_languages(3, 3))
    assert len(langs) == 112
    langs += [tiny, fx.lang]
    space = StateSpace(("s0", "s1", "s2"))
    vocab = Vocabulary((Predicate("p0", 0b011), Predicate("p1", 0b001),
                        Predicate("p2", 0b110)))
    # {0} and the empty statement unlisted, only their superset {0, 1}
    langs.append(Language.explicit(space, vocab, [S(0, 1), S(2), S(1)]))
    none = StateSpace(())
    langs += [Language.derive(none, Vocabulary(())),
              Language.explicit(none, Vocabulary((Predicate("p", 0),)), [])]
    for lang in langs:
        _check_extension_masks(lang)


def test_extension_masks_of_add8_match_extension_mask():
    lang = _compile_add8().language
    masks = lang.extension_masks()
    assert len(masks) == lang.size == 6561
    for i in random.Random(18).sample(range(lang.size), 300):
        (s,) = lang.statements_of(1 << i)
        assert masks[i] == lang.extension_mask(s)


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
