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

VERIFY_SHA256 = "e3aa7f64a4ffa7b03cec6c8d0437e57ea5e7aa4b98f173851d9fa6a1a3698861"
INDUCE_SHA256 = "248ea34d1cc34b0857a0ddec6b792b5f0d6c636d755cda6ebc6917b3d73415a0"
# `experiment --op both --dk 6,10,14 --trials 2 --seed golden-1` at the
# default budget; no trial of either mode is budget-flagged
EXPERIMENT_SHA256 = {
    "state": "b46b162bcc4ce9cc4dd52d8054bc9a3228f26d9f9a12a9524aa65460c23bc831",
    "penalized": "458b1a724917903dd449d164fe3308c3ce1803d81caeceb690ac304afdb01786",
}


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
