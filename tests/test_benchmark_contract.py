"""The names the benchmark in ``perfbench/`` wraps or reads must exist.

``perfbench/worker.py`` patches weaklab's functions by name for its traced
runs, and ``perfbench/workloads.py`` checks trial results through their
attributes.  Renaming or deleting any of them breaks the benchmark, not
weaklab's own tests, so this test runs both against the current sources.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from pathlib import Path

from weaklab import arith, cli, specdsl
from conftest import spec_path

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
        report = arith.run_experiment(["add", "mul"], [6], trials=2, master_seed="contract")
    finally:
        tracer.restore()
    assert {s.name for s in tracer.spans} >= {"arith.run_trial", "arith.d_recon"}

    errors: list[str] = []
    cells = workloads.check_trials(
        report.trial_results, arith.gen_parent_task, arith.sample_child, errors
    )
    assert errors == []
    assert {c: n[0] for c, n in cells.items()} == {"add-6": 2, "mul-6": 2}


def test_traced_experiment_reaches_the_wrapped_minimize_names(monkeypatch):
    # the benchmark runs the same trials untraced, then traced, in one
    # process and clears no cache between them; the traced run must still
    # reach prime_cubes and both searches through the names it wraps, or a
    # table or cache refactor that bypasses them zeroes the per-layer metrics
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    worker = importlib.import_module("worker")

    def run():
        return arith.run_experiment(["add", "mul"], [6], trials=2, master_seed="contract")

    run()
    tracer = tracing.Tracer()
    try:
        worker.install_tracing(tracer)
        report = run()
    finally:
        tracer.restore()
    names = [s.name for s in tracer.spans]
    trials = len(report.trial_results)
    assert names.count("minimize.max_weakness_cover") == trials == 4
    assert names.count("minimize.min_literal_cover") == trials
    offs = set()
    for t in report.trial_results:
        rng = random.Random(t.seed)  # as run_experiment derives the trial
        task = arith.gen_parent_task(t.op, rng.randrange(t.width))
        offs.add(arith.sample_child(task, t.m, rng).off())
    assert names.count("minimize.prime_cubes") == len(offs)


def test_traced_verify_and_induce_read_their_results(monkeypatch):
    # the traced wrappers read `tasks_checked` off verify's reports and
    # `language.size` off a compiled spec
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    worker = importlib.import_module("worker")

    tracer = tracing.Tracer()
    try:
        worker.install_tracing(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--max-states", "1", "--max-vocab", "1"]) == 0
            assert cli.main(["induce", "--spec", spec_path("tiny.wl"), "--task", "t1"]) == 0
    finally:
        tracer.restore()
    spans = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)
    assert set(spans) >= {
        "oracle.verify_weakness_optimality",
        "specdsl.compile_document",
        "tasks.models",
        "induction.induce",
    }
    tasks = [s.data["tasks"] for s in spans["oracle.verify_weakness_optimality"]]
    assert tasks and all(isinstance(n, int) for n in tasks) and sum(tasks) > 0
    (compiled,) = spans["specdsl.compile_document"]
    assert compiled.data["statements"] > 0


def test_induce_reaches_specdsl_through_its_module_names(monkeypatch):
    # the benchmark's specdsl.* metrics come from wrappers set on the module
    # attributes `parse` and `compile_document`; a caller that bound either
    # function to a local name would bypass them and zero those metrics
    calls = []
    for name in ("parse", "compile_document"):
        def counted(*args, _name=name, _real=getattr(specdsl, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(specdsl, name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["induce", "--spec", spec_path("add8.wl"), "--task", "add_child"]) == 0
    assert calls == ["parse", "compile_document"]


def test_traced_experiment_renders_through_the_report(monkeypatch, tmp_path):
    # `arith.report` is the benchmark's rendering layer: the printed table
    # and the results file, in every format, go through the traced
    # ExperimentReport methods, one span each
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    worker = importlib.import_module("worker")

    for fmt in ("csv", "table", "structured"):
        tracer = tracing.Tracer()
        try:
            worker.install_tracing(tracer)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([
                    "experiment", "--op", "add", "--dk", "2", "--trials", "1",
                    "--seed", "contract", "--width", "4", "--format", fmt,
                    "--out", str(tmp_path / f"r.{fmt}"),
                ]) == 0
        finally:
            tracer.restore()
        assert [s.name for s in tracer.spans].count("arith.report") == 2, fmt


def test_traced_verify_sweep_keeps_its_layer_spans(monkeypatch):
    # the verify-sweep workload's per-layer metrics read `lattice.derive`
    # spans, wrapped around both language generators, and
    # `oracle.verify_weakness_optimality` spans that carry `tasks`; a refactor
    # that derived or checked past those names would zero the metrics
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    worker = importlib.import_module("worker")

    tracer = tracing.Tracer()
    try:
        worker.install_tracing(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--max-states", "4", "--max-vocab", "4",
                             "--seed", "contract"]) == 0
    finally:
        tracer.restore()
    derive = [s for s in tracer.spans if s.name == "lattice.derive"]
    # one span per exhaustive language and one for the generator's end, then
    # one for the sampler's call
    assert len(derive) == 183 + 1 + 1
    assert all(s.duration_ns > 0 for s in derive)
    # the fixture language, then one check per universe; those over the
    # member cap record their error instead
    checks = [s.data for s in tracer.spans if s.name == "oracle.verify_weakness_optimality"]
    tasks = [d["tasks"] for d in checks if "error" not in d]
    assert len(tasks) > 1 and all(isinstance(n, int) for n in tasks) and sum(tasks) > 1520
    assert len(tasks) + checks.count({"error": "CapacityError"}) == len(checks)
