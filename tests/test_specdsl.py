import random
import warnings
from fractions import Fraction

import pytest

from weaklab import induce, generalisation_probability, prior, specdsl
from conftest import spec_path
from _oracles import completions, naive_evaluate

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


# (category, line, col, message) of the first error in each malformed
# document; where two categories are listed the error moved between them
# when pattern characters came to be checked in one place
_FRONT_END_ERRORS = [
    ("lone-colon", "width 1;\npred p : b0;\n", ("lexical", 2, 8, "expected ':='")),
    ("superscript-width", "width \u00b2;\n", ("lexical", 1, 7, "unexpected character '\u00b2'")),
    ("superscript-name", "width 1;\npred b\u00b9 := b0;\n",
     ("lexical", 2, 7, "unexpected character '\u00b9'")),
    ("pattern-0-2", "width 3;\npred p := b0;\ntask t { situations { 0-2 } decisions { 010 } }\n",
     (("lexical", "syntax"), 3, 23, "malformed bit pattern '0-2'")),
    ("pattern-0120", "width 4;\npred p := b0;\ntask t { situations { 0120 } decisions { 0100 } }\n",
     ("syntax", 3, 23, "malformed bit pattern '0120'")),
    ("no-declaration", "# no declaration\n", ("syntax", 2, 1, "missing width declaration")),
    ("width-not-first", "pred p := b0;\n", ("syntax", 1, 1, "width must be declared before this")),
    ("duplicate-width", "width 1;\nwidth 2;\n", ("syntax", 2, 1, "duplicate width declaration")),
    ("width-0", "width 0;\n", ("width-violation", 1, 7, "width must be between 1 and 16")),
    ("width-17", "width 17;\n", ("width-violation", 1, 7, "width must be between 1 and 16")),
    ("unknown-declaration", "width 1;\npredicate p := b0;\n",
     ("syntax", 2, 1, "unknown declaration 'predicate'")),
    ("keyword-as-name", "width 1;\npred task := b0;\n", ("syntax", 2, 6, "'task' is a keyword")),
    ("bit-reference-as-name", "width 2;\npred b1 := b0;\n",
     ("syntax", 2, 6, "'b1' is reserved for bit references")),
    ("duplicate-name", "width 1;\npred p := b0;\nstatement p = {p};\n",
     ("syntax", 3, 11, "duplicate name 'p' (already a pred)")),
    ("undefined-member", "width 1;\npred p := b0;\nstatement s = {p, q};\n",
     ("undefined-name", 3, 19, "undefined predicate 'q'")),
    ("duplicate-member", "width 1;\npred p := b0;\nstatement s = {p, p};\n",
     ("syntax", 3, 19, "duplicate member 'p'")),
    ("empty-element-list", "width 1;\npred p := b0;\ntask t {\n  situations { }\n  decisions { {p} }\n}\n",
     ("syntax", 4, 14, "empty element list")),
    ("missing-situations", "width 1;\npred p := b0;\ntask t {\n  decisions { {p} }\n}\n",
     ("syntax", 4, 3, "expected 'situations'")),
    ("missing-decisions", "width 1;\npred p := b0;\ntask t {\n  situations { {p} }\n}\n",
     ("syntax", 5, 1, "expected 'decisions', found '}'")),
    ("end-inside-formula", "width 2;\npred p := b0 & (b1 |",
     ("syntax", 2, 21, "expected formula atom, found end of input")),
]


@pytest.mark.parametrize(
    "text, expected", [c[1:] for c in _FRONT_END_ERRORS],
    ids=[c[0] for c in _FRONT_END_ERRORS],
)
def test_front_end_errors_are_pinned(text, expected):
    category, line, col, message = expected
    with pytest.raises(specdsl.SpecError) as err:
        specdsl.parse(text)
    e = err.value
    assert e.category in (category if isinstance(category, tuple) else (category,))
    assert (e.line, e.col, e.message) == (line, col, message)


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


# formulas exactly MAX_DEPTH = n levels deep
_AT_DEPTH_LIMIT = {
    "nots": lambda n: "!" * (n - 1) + "b0",
    "parens": lambda n: "(" * (n - 1) + "b0" + ")" * (n - 1),
    "or-chain": lambda n: " | ".join(["b0"] * n),
    "and-chain": lambda n: " & ".join(["b0"] * n),
    "right-nested-and": lambda n: "b0 & (" * (n - 2) + "!b0" + ")" * (n - 2),
}


@pytest.mark.parametrize("shape", sorted(_AT_DEPTH_LIMIT))
def test_formula_at_the_depth_limit_round_trips(shape):
    formula = _AT_DEPTH_LIMIT[shape](specdsl.MAX_DEPTH)
    text = f"width 1; pred p := {formula};"
    cs = specdsl.compile_text(text)
    printed = specdsl.print_document(cs.doc)
    assert specdsl.parse(printed) == cs.doc
    assert specdsl.compile_text(printed).language.vocab[0].truth == (
        cs.language.vocab[0].truth
    )
    # one more level is refused with a location
    with pytest.raises(specdsl.SpecError) as err:
        specdsl.parse(f"width 1; pred p := !({formula});")
    assert "nested deeper" in err.value.message
    assert err.value.line == 1


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
            assert bool(mask >> s & 1) == naive_evaluate(e, width, s)


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


def test_duplicate_truth_tables_are_located_warnings():
    text = "width 1;\npred p := b0;\npred q := !!b0;\npred r := b0 & b0;\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # Vocabulary's own warning is not raised
        cs = specdsl.compile_text(text)
    assert cs.warnings == (
        "3:6: warning: predicate 'q' has the same truth table as 'p'",
        "4:6: warning: predicate 'r' has the same truth table as 'p'",
    )
    assert specdsl.compile_text(read_spec("tiny.wl")).warnings == ()


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
            assert set(states) == set(completions(pat, bit, 8))
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
