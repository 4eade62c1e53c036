"""Tests of the benchmark itself: statistics, failure counting, a tiny grid.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from stats import CallOutcome  # noqa: E402


# ---------------------------------------------------------------------------
# percentiles


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # p50 would leave 9 beyond
        (20, 50.0),
        (99, 50.0),  # p90 would leave 9 beyond
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n))
    p, value, count = stats.tail_percentile(values)
    assert count == n
    assert p == expected
    if p is None:
        assert value is None
    else:
        assert stats.samples_beyond(n, p) >= 10
        assert sum(1 for v in values if v > value) >= 10
        assert value == stats.percentile(values, p)


def test_describe_states_the_sample_count():
    assert "(n=100)" in stats.describe([float(i) for i in range(100)], "ms")
    assert "p90" in stats.describe([float(i) for i in range(100)], "ms")
    assert stats.describe([1.0, 2.0], "ms") == "median=1.5 ms (n=2)"


def test_reference_around_takes_samples_inside_or_the_nearest():
    ref = calibrate.Reference()
    ref.times = [1.0, 2.0, 3.0, 10.0]
    ref.samples = [4.0, 6.0, 5.0, 9.0]
    assert ref.around(1.5, 3.5) == 5.5
    assert ref.around(3.2, 3.4) == 5.0
    assert ref.around(9.0, 9.5) == 9.0
    assert ref.around(0.0, 0.5) == 4.0
    assert ref.around(11.0, 12.0) == 9.0


def test_self_time_and_shares_from_spans():
    t = tracing.Tracer()
    t.spans = [
        tracing.Span("cli.main", 0, 100, -1, 0, None, None),
        tracing.Span("a", 10, 60, 0, 0, None, None),
        tracing.Span("a", 20, 30, 1, 0, None, None),  # a nested in itself
        tracing.Span("b", 70, 90, 0, 0, None, None),
    ]
    assert t.self_ns() == [30, 40, 10, 20]
    assert t.shares("cli.main") == {"cli.main": (1.0, 0.3), "a": (0.5, 0.5), "b": (0.2, 0.2)}


# ---------------------------------------------------------------------------
# failed_share counting


def grid_rows(flagged):
    rows = []
    for i, (op, dk) in enumerate((o, m) for o in ("add", "mul") for m in (6, 10, 14)):
        rows.append({
            "op": op, "dk": dk, "trials": 2,
            "weakness": {"rate": [1, 2]}, "mdl": {"rate": [0, 1]},
            "flagged_trials": flagged if (op, dk) == ("add", 14) else 0,
        })
    return json.dumps({"rows": rows})


def test_flagged_trials_count_as_refused():
    errors = []
    outcome, cells = workloads.grid_outcome(2, grid_rows(1), None, errors)
    assert errors == []
    assert cells["add-14"] == [2, 1, 0, 1]
    assert stats.tally([outcome]) == (12, 0, 1)
    assert stats.failed_share(12, 0, 1) == pytest.approx(1 / 12)
    # exit 2 is the documented result only when trials were flagged
    clean, _ = workloads.grid_outcome(2, grid_rows(0), None, errors)
    assert clean.unexpected
    assert stats.tally([clean]) == (12, 12, 0)


def verify_text(skipped, violations):
    return json.dumps({
        "fixture": {"passed": True, "weakness_winner": "{j,k}", "mdl_winner": "{z}"},
        "optimality": {"languages_checked": 10, "languages_skipped_over_cap": skipped,
                       "tasks_checked": 100, "violation_count": violations},
    })


def test_languages_over_the_cap_are_refused_and_violations_failed():
    errors = []
    outcome, summary = workloads.verify_outcome(0, verify_text(3, 0), None, errors)
    assert (summary, errors) == ([10, 3, 100, 0], [])
    assert stats.tally([outcome]) == (13, 0, 3)
    outcome, _ = workloads.verify_outcome(1, verify_text(0, 2), None, errors)
    assert stats.tally([outcome]) == (10, 2, 0)
    assert errors == ["verify: 2 weakness-optimality violation(s)"]


def induce_call(task, proxy="weakness", spec="specs/add8.wl"):
    return workloads.Call(("induce",), "stdout", (spec, task, proxy))


def test_expected_and_unexpected_exit_codes():
    errors = []
    # exit 1 with "model set empty" is the documented result for *_parent
    ok, _ = workloads.induce_outcome(induce_call("add_parent"), 1,
                                     "model set empty\n", None, errors)
    # the same exit code on a task with models is a failure
    bad, _ = workloads.induce_outcome(induce_call("add_child"), 1,
                                      "model set empty\n", None, errors)
    # so is a traceback, whatever the task
    crash, _ = workloads.induce_outcome(induce_call("add_parent"), None, "",
                                        "Traceback ...", errors)
    assert (ok.unexpected, bad.unexpected, crash.unexpected) == (False, True, True)
    assert stats.tally([ok, bad, crash]) == (3, 2, 0)
    assert errors == []


def test_divergence_winners_are_checked():
    errors = []
    text = json.dumps({"task": "alpha", "proxy": "mdl", "model": "{j,k}"})
    workloads.induce_outcome(induce_call("alpha", "mdl", "specs/divergence.wl"),
                             0, text, None, errors)
    assert errors == ["induce divergence.wl/alpha mdl: {j,k} != {z}"]


# ---------------------------------------------------------------------------
# a tiny grid, untraced and traced, in this process


@pytest.fixture
def tiny_grid(monkeypatch):
    monkeypatch.setattr(workloads, "GRID_DK", (2,))
    monkeypatch.setattr(workloads, "TRIALS_PER_CELL", 1)
    monkeypatch.setattr(worker, "CELLS", ("add-2", "mul-2"))


def run_worker(trace):
    args = argparse.Namespace(workload="grid-penalized", seed=7, seconds=0.0,
                              passes=2, trace=trace, setup_only=False)
    return worker.run(args)


def test_tiny_grid_smoke_run(tiny_grid):
    plain = run_worker(trace=False)
    traced = run_worker(trace=True)
    for rec in (plain, traced):
        assert rec["errors"] == []
        assert rec["passes"] == 2
        assert rec["attempted"] == 4  # 2 passes x 2 cells x 1 trial
        assert len(rec["op_ms"]) == len(rec["op_ref"]) == 4
        assert set(rec["summary"]) == {"add-2", "mul-2"}
    for key in ("summary", "digest", "attempted", "failed", "refused"):
        assert plain[key] == traced[key]
    layers = traced["layers"]
    added_by_run = {"cli.call_p50_ms", "cli.call_p90_ms", "trace.overhead_s"}
    per_cell = [n for n, _, _ in worker.LAYER_METRICS if n.endswith(".add-6")]
    expected = {n for n, _, _ in worker.LAYER_METRICS
                if not n.endswith(workloads.CELLS)} - added_by_run
    expected |= {n.replace("add-6", c) for n in per_cell for c in ("add-2", "mul-2")}
    assert set(layers) == expected
    assert layers["minimize.prime_cubes.calls"] >= 4
    assert layers["arith.trial_ms_max.add-2"] > 0
    assert layers["cli.main.self_s"] > 0
    assert traced["shares"]["cli.main"][0] == 1.0
    assert sum(traced["cell_shares"].values()) == pytest.approx(1.0)
    spans = (ROOT / traced["spans_file"]).read_text().splitlines()
    assert len(spans) == traced["spans"]
    first = json.loads(spans[0])
    assert set(first) == {"id", "name", "start_ns", "end_ns", "parent", "op", "cell", "data"}


# ---------------------------------------------------------------------------
# the benchmark's description and its refusal to run without sources


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == worker.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_is_measured_on_the_workload_that_runs_its_layer():
    for name, _, _ in worker.LAYER_METRICS:
        assert name in run.SUMMED or run.home(name) in workloads.WORKLOADS, name
    assert run.home("minimize.max_weakness_cover.flagged.add-14") == "grid-penalized"
    assert run.home("minimize.min_literal_cover.s.add-14") == "grid-state"
    assert run.home("arith.trial_ms_p90.add-14") == "grid-penalized"
    assert run.home("lattice.extension_masks.s") == "verify-sweep"
    assert run.home("lattice.statements") == "induce-corpus"
    assert run.home("cli.call_p90_ms") == "induce-corpus"
    assert set(run.TRACE_SHARE) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-state", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no weaklab sources" in proc.stderr
