"""Byte-identity of the reports that `experiment`, `verify` and `induce` write.

The digests below were recorded from the outputs of these exact commands
and pin every number, order and format in them: a refactor of the cover
search, lattice, task or oracle code must leave them unchanged.  A change
that alters the results on purpose records new digests and says why.
"""

import contextlib
import hashlib
import io
import os
import re

import pytest

from weaklab import cli
from conftest import SPEC_DIR

VERIFY_SHA256 = "60bf4dc329a7721572cdc71a16c82990bdaeede12d9f29a9e5c095dfd8a70042"
# `verify --max-states 4 --max-vocab 4 --seed golden-4`, the one that adds
# the seeded 4-state languages to the sweep
VERIFY_SAMPLED_SHA256 = "7f5057273f39599a382858bf3bb147d6623b28743b25ffde37ef2f57c139d0cf"
INDUCE_SHA256 = "248ea34d1cc34b0857a0ddec6b792b5f0d6c636d755cda6ebc6917b3d73415a0"
# `experiment --op both --dk 6,10,14 --trials 2 --seed golden-1` at the
# default budget; no trial of either mode is budget-flagged
EXPERIMENT_SHA256 = {
    "state": "b46b162bcc4ce9cc4dd52d8054bc9a3228f26d9f9a12a9524aa65460c23bc831",
    "penalized": "458b1a724917903dd449d164fe3308c3ce1803d81caeceb690ac304afdb01786",
}
# the same experiments written as CSV and as a table, `verify --format
# table --out`, and `induce --format table` stdout over the corpus
EXPERIMENT_TEXT_SHA256 = {
    ("state", "csv"): "c967dd74d3c204f53ac5c03adfa4e0cc5df320dae100ee831011febf56d6516c",
    ("state", "table"): "2a16994c98490184d0e6a4d23bd98d0467191af730a5643e2c3dc023cc7d61d2",
    ("penalized", "csv"): "e0db89d55fdaaa1f67308a9a8c7c2d444b3e2e01a277d7a1d734a00851babd3c",
    ("penalized", "table"): "e43fcc1c8bbbe02516c33cf7ba3cba615892074995a4fe73dcb6399043f85c72",
}
VERIFY_TABLE_SHA256 = "005dea8a7c7111ac222a593ab2300922d910a5b41f7a07415f4ee0e1aa05774c"
INDUCE_TABLE_SHA256 = "fce5b529a13bc42641d400905bb401625f2e29aab8276d20d6340286f27f4c78"


def _corpus():
    """(spec file name, task name) for every task in specs/, found with a
    regular expression so the list does not depend on the spec parser."""
    out = []
    for name in sorted(os.listdir(SPEC_DIR)):
        if name.endswith(".wl"):
            with open(os.path.join(SPEC_DIR, name), encoding="utf-8") as fh:
                text = fh.read()
            for task in re.findall(r"^\s*task\s+([A-Za-z_]\w*)", text, re.M):
                out.append((name, task))
    return out


@pytest.mark.parametrize("mode", sorted(EXPERIMENT_SHA256))
def test_experiment_report_is_byte_identical(tmp_path, mode):
    out = tmp_path / f"{mode}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "experiment", "--op", "both", "--dk", "6,10,14", "--trials", "2",
            "--seed", "golden-1", "--mode", mode, "--format", "structured",
            "--out", str(out),
        ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPERIMENT_SHA256[mode]


def test_verify_report_is_byte_identical(tmp_path):
    out = tmp_path / "verify.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SHA256


def test_sampled_verify_report_is_byte_identical(tmp_path):
    out = tmp_path / "verify-4.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--max-states", "4", "--max-vocab", "4",
                         "--seed", "golden-4", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SAMPLED_SHA256


def test_induce_corpus_output_is_byte_identical():
    digest = hashlib.sha256()
    calls = 0
    for spec, task in _corpus():
        for proxy in ("weakness", "mdl"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([
                    "induce", "--spec", os.path.join(SPEC_DIR, spec),
                    "--task", task, "--proxy", proxy, "--format", "structured",
                ])
            digest.update(f"{spec} {task} {proxy} exit={code}\n".encode())
            digest.update(buf.getvalue().encode())
            calls += 1
    assert calls == 12
    assert digest.hexdigest() == INDUCE_SHA256


@pytest.mark.parametrize("mode, fmt", sorted(EXPERIMENT_TEXT_SHA256))
def test_experiment_text_formats_are_byte_identical(tmp_path, mode, fmt):
    out = tmp_path / f"{mode}.{fmt}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "experiment", "--op", "both", "--dk", "6,10,14", "--trials", "2",
            "--seed", "golden-1", "--mode", mode, "--format", fmt,
            "--out", str(out),
        ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPERIMENT_TEXT_SHA256[mode, fmt]


def test_verify_table_is_byte_identical(tmp_path):
    out = tmp_path / "verify.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--format", "table", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_TABLE_SHA256


def test_induce_corpus_table_is_byte_identical():
    digest = hashlib.sha256()
    for spec, task in _corpus():
        for proxy in ("weakness", "mdl"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([
                    "induce", "--spec", os.path.join(SPEC_DIR, spec),
                    "--task", task, "--proxy", proxy, "--format", "table",
                ])
            digest.update(f"{spec} {task} {proxy} exit={code}\n".encode())
            digest.update(buf.getvalue().encode())
    assert digest.hexdigest() == INDUCE_TABLE_SHA256
