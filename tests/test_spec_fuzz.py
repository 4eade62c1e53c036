"""Fuzz the spec-file boundary of `weaklab induce`.

Mutated corpus files, formulas nested past the depth limit, non-ASCII
digits and random bytes must each end in a documented exit code with no
traceback.  The small --cap makes a mutated large width end fast with 75.
"""

import contextlib
import io
import os

from hypothesis import given, settings, strategies as st

from weaklab import cli
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
