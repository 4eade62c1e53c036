"""Fuzz the spec-file boundary of `weaklab induce`.

Mutated corpus files, formulas nested past the depth limit, non-ASCII
digits and random bytes must each end in a documented exit code with no
traceback.  The small --cap makes a mutated large width end fast with 75.
"""

import contextlib
import hashlib
import io
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from weaklab import cli, specdsl
from conftest import SPEC_DIR

DOCUMENTED_EXITS = {0, 1, 64, 65, 74, 75}

_CORPUS = [
    open(os.path.join(SPEC_DIR, name), "rb").read()
    for name in sorted(os.listdir(SPEC_DIR))
    if name.endswith(".wl")
]
_INSERTS = [c.encode() for c in "01-;:=,{}()!&|#\n b_x" "²¹٣Ⅻ¬∧"]


@st.composite
def _mutated(draw):
    data = bytearray(draw(st.sampled_from(_CORPUS)))
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["delete", "insert", "swap"]))
        if op == "delete":
            del data[i]
        elif op == "insert":
            data[i:i] = draw(st.sampled_from(_INSERTS))
        else:
            j = draw(st.integers(0, len(data) - 1))
            data[i], data[j] = data[j], data[i]
    return bytes(data)


@st.composite
def _deep(draw):
    n = draw(st.integers(90, 1500))
    opener, closer = draw(st.sampled_from([("(", ")"), ("!", ""), ("!(", ")")]))
    formula = opener * n + "b0" + closer * n
    if draw(st.booleans()):
        formula = " | ".join(["b0"] * n)
    return f"width 1;\npred p := {formula};\ntask t {{ situations {{ {{}} }} decisions {{ {{p}} }} }}\n".encode()


@st.composite
def _non_ascii_digit(draw):
    data = draw(st.sampled_from(_CORPUS)).decode()
    i = draw(st.integers(0, len(data)))
    return (data[:i] + draw(st.sampled_from("²¹٣Ⅻ½")) + data[i:]).encode()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_mutated(), _deep(), _non_ascii_digit(), st.binary(max_size=300)))
def test_spec_files_end_in_documented_codes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "spec.wl"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["induce", "--spec", str(path), "--task", "t", "--cap", "20000"])
    assert code in DOCUMENTED_EXITS
    assert "Traceback" not in err.getvalue()


# int() refuses strings of over 4,300 digits: (text, location of the error)
_HUGE_INTEGER_SPECS = {
    "width": ("width " + "9" * 5000 + ";\n", "1:7"),
    "bit-index": ("width 2;\npred p := b" + "9" * 5000 + ";\n", "2:11"),
}


@pytest.mark.parametrize("text, where", _HUGE_INTEGER_SPECS.values(),
                         ids=_HUGE_INTEGER_SPECS.keys())
def test_huge_integers_end_in_a_located_spec_error(tmp_path, text, where):
    path = tmp_path / "spec.wl"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["induce", "--spec", str(path), "--task", "t"])
    assert code == 65
    assert err.getvalue().startswith(f"{path}:{where}: width-violation: ")


# SHA-256 of the front end's answers to _pinned_mutations(): any change in a
# printed document or in an error's category, location or message moves it
_MUTATION_DIGEST = "7e708ee9b2c909eb3433ae1ac10f57096838b5230f969e70e62fcb62a2910403"


def _pinned_mutations(count: int = 1000, seed: int = 2110):
    """Seeded mutations of the decoded corpus: 1 to 6 deletes, inserts
    from _INSERTS and swaps each, as in _mutated."""
    rng = random.Random(seed)
    corpus = [data.decode() for data in _CORPUS]
    inserts = [c.decode() for c in _INSERTS]
    for _ in range(count):
        text = list(rng.choice(corpus))
        for _ in range(rng.randint(1, 6)):
            i, op = rng.randrange(len(text)), rng.choice(["delete", "insert", "swap"])
            if op == "delete":
                del text[i]
            elif op == "insert":
                text.insert(i, rng.choice(inserts))
            else:
                j = rng.randrange(len(text))
                text[i], text[j] = text[j], text[i]
        yield "".join(text)


def test_front_end_answers_to_pinned_mutations_are_unchanged():
    digest = hashlib.sha256()
    for text in _pinned_mutations():
        try:
            record = specdsl.print_document(specdsl.parse(text))
        except specdsl.SpecError as e:
            record = repr((e.category, e.line, e.col, e.message))
        digest.update(record.encode() + b"\0")
    assert digest.hexdigest() == _MUTATION_DIGEST
