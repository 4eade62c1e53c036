import random
from fractions import Fraction

import pytest

from weaklab import induce, generalisation_probability, prior, specdsl
from conftest import spec_path

CORPUS = ["tiny.wl", "divergence.wl", "add8.wl", "mul8.wl"]


def read_spec(name: str) -> str:
    with open(spec_path(name), encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# parsing


def test_parse_simple_predicate_truth():
    cs = specdsl.compile_text("width 2; pred p := b0 & !b1;")
    truth = cs.language.vocab[0].truth
    states = cs.language.space.states
    assert [s for i, s in enumerate(states) if truth >> i & 1] == ["10"]


def test_width_violation_has_location():
    with pytest.raises(specdsl.SpecError) as err:
        specdsl.parse("width 8;\npred x := b9;")
    assert err.value.category == "width-violation"
    assert (err.value.line, err.value.col) == (2, 11)


def test_undefined_statement_member():
    with pytest.raises(specdsl.SpecError) as err:
        specdsl.parse("width 1; pred p := b0; statement s = {p, nope};")
    assert err.value.category == "undefined-name"


def test_duplicate_name_rejected():
    with pytest.raises(specdsl.SpecError) as err:
        specdsl.parse("width 1; pred p := b0; pred p := !b0;")
    assert "duplicate" in err.value.message


def test_missing_width():
    with pytest.raises(specdsl.SpecError) as err:
        specdsl.parse("pred p := b0;")
    assert "width" in err.value.message


def test_pattern_length_checked():
    text = "width 4; pred p0 := b0; task t { situations { 01- } decisions { 0000 } }"
    with pytest.raises(specdsl.SpecError) as err:
        specdsl.parse(text)
    assert err.value.category == "width-violation"


def test_unicode_connectives():
    a = specdsl.parse("width 2; pred p := ¬b0 ∧ b1;")
    b = specdsl.parse("width 2; pred p := !b0 & b1;")
    assert a == b


def test_comments_and_whitespace():
    text = "# heading\nwidth 1;  # trailing\npred p := b0;\n"
    assert specdsl.parse(text).width == 1


def test_keyword_cannot_name_predicate():
    with pytest.raises(specdsl.SpecError):
        specdsl.parse("width 1; pred task := b0;")


def test_bitref_cannot_name_predicate():
    with pytest.raises(specdsl.SpecError):
        specdsl.parse("width 2; pred b1 := b0;")


# ---------------------------------------------------------------------------
# printing


def test_print_canonicalizes_parens():
    doc = specdsl.parse("width 2; pred x := b0&(!b1);")
    assert "pred x := b0 & !b1;" in specdsl.print_document(doc)


def test_print_preserves_right_nesting():
    doc = specdsl.parse("width 3; pred x := b0 & (b1 & b2);")
    out = specdsl.print_document(doc)
    assert "b0 & (b1 & b2)" in out
    assert specdsl.parse(out) == doc


def test_print_without_tasks():
    doc = specdsl.parse("width 1; pred p := b0;")
    out = specdsl.print_document(doc)
    assert "task" not in out
    assert specdsl.parse(out) == doc


def test_precedence_printing():
    doc = specdsl.parse("width 3; pred x := (b0 | b1) & !b2;")
    out = specdsl.print_document(doc)
    assert "(b0 | b1) & !b2" in out
    assert specdsl.parse(out) == doc


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_roundtrip(name):
    text = read_spec(name)
    doc = specdsl.parse(text)
    printed = specdsl.print_document(doc)
    assert specdsl.parse(printed) == doc
    # printing is idempotent after one pass
    assert specdsl.print_document(specdsl.parse(printed)) == printed


# ---------------------------------------------------------------------------
# formula evaluation: mask route vs pointwise route


def _random_expr(rng: random.Random, width: int, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return specdsl.BitRef(rng.randrange(width))
    r = rng.random()
    if r < 0.33:
        return specdsl.Not(_random_expr(rng, width, depth - 1))
    cls = specdsl.And if r < 0.66 else specdsl.Or
    return cls(_random_expr(rng, width, depth - 1), _random_expr(rng, width, depth - 1))


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
def test_eval_routes_agree(width):
    rng = random.Random(width * 101)
    for _ in range(20):
        e = _random_expr(rng, width, 4)
        mask = specdsl._eval_mask(e, width)
        for s in range(1 << width):
            assert bool(mask >> s & 1) == specdsl.evaluate(e, width, s)


def test_printed_expr_reparses_equal():
    rng = random.Random(424)
    for _ in range(60):
        e = _random_expr(rng, 4, 5)
        doc = specdsl.SpecDocument(4, (specdsl.PredDef("p", e),), (), ())
        assert specdsl.parse(specdsl.print_document(doc)) == doc


# ---------------------------------------------------------------------------
# compilation


def test_compile_tiny_spec(tiny):
    cs = specdsl.compile_text(read_spec("tiny.wl"))
    assert cs.language.size == 3
    assert [s.members for s in cs.language.statements] == [
        s.members for s in tiny.statements
    ]


def test_compile_divergence_matches_fixture(fx):
    cs = specdsl.compile_text(read_spec("divergence.wl"))
    lang, task = cs.language, cs.tasks["alpha"]
    assert lang.mode == "explicit"
    assert lang.size == 8
    fmt = lang.format_statement
    assert [fmt(m) for m in task.models()] == ["{z}", "{j,k}"]
    assert fmt(induce(task, "weakness")) == "{j,k}"
    assert fmt(induce(task, "mdl")) == "{z}"
    assert lang.weakness(induce(task, "weakness")) == 5
    assert lang.weakness(induce(task, "mdl")) == 3
    assert generalisation_probability(task, induce(task, "weakness")) == Fraction(1, 4)
    assert generalisation_probability(task, induce(task, "mdl")) == Fraction(1, 16)
    assert prior(lang, induce(task, "weakness")) == Fraction(1, 8)


def test_compile_unsatisfiable_explicit_statement():
    text = (
        "width 1; pred p := b0; pred q := !b0;\n"
        "statement bad = {p, q};"
    )
    with pytest.raises(specdsl.CompileError) as err:
        specdsl.compile_text(text)
    assert "bad" in str(err.value)


def test_compile_duplicate_statement_body():
    text = (
        "width 1; pred p := b0;\n"
        "statement a = {p};\n"
        "statement b = {p};"
    )
    with pytest.raises(specdsl.CompileError) as err:
        specdsl.compile_text(text)
    assert err.value.line == 3
    assert "duplicates" in err.value.message


def test_compile_invalid_task_reports_location():
    text = (
        "width 1; pred p := b0; pred q := !b0;\n"
        "task t { situations { {p} } decisions { {q} } }"
    )
    with pytest.raises(specdsl.CompileError) as err:
        specdsl.compile_text(text)
    assert err.value.line == 2


def test_compile_pattern_requires_literal_predicate():
    text = "width 2; pred p0 := b0;\ntask t { situations { 0- } decisions { 01 } }"
    with pytest.raises(specdsl.CompileError) as err:
        specdsl.compile_text(text)
    assert "position" in err.value.message


def test_compile_arith_specs_build_tasks():
    for name, op in (("add8.wl", "add"), ("mul8.wl", "mul")):
        cs = specdsl.compile_text(read_spec(name))
        assert cs.language.size == 3**8
        task = cs.tasks[f"{op}_parent"]
        assert len(task.decisions) == 16
        assert len(task.situations) == 16
        # decisions are maximal statements: one literal per position
        assert all(len(d) == 8 for d in task.decisions)


def test_arith_specs_agree_with_state_harness():
    # the compiled lattice-level parent tasks describe the same objects as
    # the state-level generator: decisions are the maximal statements whose
    # satisfying state is the encoded string, situations its projections
    from weaklab import arith

    for name, op, bit in (("add8.wl", "add", 3), ("mul8.wl", "mul", 5)):
        cs = specdsl.compile_text(read_spec(name))
        lang = cs.language
        task = cs.tasks[f"{op}_parent"]
        state_task = arith.gen_parent_task(op, deleted_bit=bit)

        def only_state(stmt):
            sat = lang.sat_set(stmt)
            assert sat.bit_count() == 1
            return sat.bit_length() - 1

        assert sorted(only_state(d) for d in task.decisions) == list(
            state_task.decisions
        )
        # each situation statement is satisfied by exactly its 2 completions
        got_sits = set()
        for s in task.situations:
            sat = lang.sat_set(s)
            assert sat.bit_count() == 2
            states = [i for i in range(sat.bit_length()) if sat >> i & 1]
            pat = arith.delete_position(states[0], bit, 8)
            assert set(states) == set(arith.completions(pat, bit, 8))
            got_sits.add(pat)
        assert got_sits == set(state_task.situations)


def test_pattern_element_resolution():
    text = (
        "width 2;\n"
        "pred one0 := b0; pred zero0 := !b0; pred one1 := b1; pred zero1 := !b1;\n"
        "task t { situations { 1- } decisions { 10, 11 } }"
    )
    cs = specdsl.compile_text(text)
    task = cs.tasks["t"]
    sit = task.situations[0]
    assert cs.language.format_statement(sit) == "{one0}"
    assert len(task.decisions) == 2
