"""The names the benchmark in ``perfbench/`` wraps or reads must exist.

``perfbench/worker.py`` patches weaklab's functions by name for its traced
runs, and ``perfbench/workloads.py`` checks trial results through their
attributes.  Renaming or deleting any of them breaks the benchmark, not
weaklab's own tests, so this test runs both against the current sources.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from weaklab import arith

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")

    tracer = tracing.Tracer()
    try:
        worker.install_tracing(tracer)
        # a traced run goes through every wrapper on the experiment path
        report = arith.run_experiment(
            ["add", "mul"], [6], trials=2, master_seed="contract", keep_trials=True
        )
    finally:
        tracer.restore()
    assert {s.name for s in tracer.spans} >= {"arith.run_trial", "arith.d_recon"}

    errors: list[str] = []
    cells = workloads.check_trials(
        report.trial_results, arith.gen_parent_task, arith.sample_child, errors
    )
    assert errors == []
    assert {c: n[0] for c, n in cells.items()} == {"add-6": 2, "mul-6": 2}
