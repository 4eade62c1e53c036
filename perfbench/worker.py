"""One benchmark process: set up, run one workload, check it, report.

``run.py`` starts a fresh interpreter with this file for every measured
run, so the process-wide caches in ``weaklab.minimize`` (the ``prime_cubes``
LRU, ``cube_extent`` and ``_bit_planes``) start cold each time.  The process
is single-threaded.  It writes one JSON record to ``--result`` and prints
nothing on stdout.

Untraced, the process times CLI calls, and trials through one wrapper on
``arith.run_trial``, and samples the reference kernel of calibrate.py.  With
``--trace`` it also wraps the public functions of minimize, arith, oracle,
lattice, specdsl, tasks and induction (see install_tracing) and derives the
per-layer metrics from the spans; ``--passes`` then fixes the number of
passes, so that the traced run repeats exactly the calls of an untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import stats
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

CELLS = workloads.CELLS

# name, unit, better; computed from the spans of a traced run (see
# layer_metrics) apart from the last three, which run.py adds.
LAYER_METRICS: list[tuple[str, str, str]] = (
    [(f"minimize.max_weakness_cover.{stat}.{c}", unit, "lower")
     for stat, unit in (("s", "s"), ("nodes_p50", "count"), ("nodes_p90", "count"),
                        ("nodes_max", "count"), ("flagged", "count"))
     for c in CELLS]
    + [("minimize.max_weakness_cover.nodes_per_s", "1/s", "higher"),
       ("minimize.max_weakness_cover.self_s", "s", "lower"),
       ("minimize.prime_cubes.s", "s", "lower"),
       ("minimize.prime_cubes.calls", "count", "lower"),
       ("minimize.prime_cubes.primes_p50", "count", "lower")]
    + [(f"minimize.min_literal_cover.{stat}.{c}", unit, "lower")
       for stat, unit in (("s", "s"), ("nodes_p90", "count"), ("nodes_max", "count"),
                          ("flagged", "count"))
       for c in CELLS]
    + [("minimize.min_literal_cover.self_s", "s", "lower"),
       ("minimize.exact_cover_of.s", "s", "lower"),
       ("minimize.exact_cover_of.self_s", "s", "lower"),
       ("arith.gen_parent_task.s", "s", "lower"),
       ("arith.sample_child.s", "s", "lower"),
       ("arith.d_recon.s", "s", "lower"),
       ("arith.run_trial.self_s", "s", "lower")]
    + [(f"arith.trial_ms_{stat}.{c}", "ms", "lower")
       for stat in ("p50", "p90", "max") for c in CELLS]
    + [("arith.report.s", "s", "lower"),
       ("lattice.derive.s", "s", "lower"),
       ("lattice.extension_masks.s", "s", "lower"),
       ("oracle.verify_weakness_optimality.s", "s", "lower"),
       ("oracle.verify_weakness_optimality.self_s", "s", "lower"),
       ("oracle.verify_weakness_optimality.ms_p50", "ms", "lower"),
       ("oracle.verify_weakness_optimality.ms_p90", "ms", "lower"),
       ("oracle.verify_weakness_optimality.ms_max", "ms", "lower"),
       ("oracle.tasks_checked", "count", "higher"),
       ("oracle.tasks_per_s", "1/s", "higher"),
       ("oracle.languages_skipped", "count", "lower"),
       ("oracle.prior_report.s", "s", "lower"),
       ("oracle.divergence_fixture.s", "s", "lower"),
       ("specdsl.parse.s", "s", "lower"),
       ("specdsl.compile_document.s", "s", "lower"),
       ("specdsl.compile_document.self_s", "s", "lower"),
       ("tasks.models.s", "s", "lower"),
       ("induction.induce.s", "s", "lower"),
       ("induction.induce.self_s", "s", "lower"),
       ("induction.generalisation_probability.s", "s", "lower"),
       ("induction.prior.s", "s", "lower"),
       ("lattice.statements", "count", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("cli.call_p50_ms", "ms", "lower"),
       ("cli.call_p90_ms", "ms", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def import_weaklab():
    """Import weaklab from this checkout's src/, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import weaklab
    import weaklab.cli

    if not Path(weaklab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"weaklab imported from {weaklab.__file__}, not {src}")
    return weaklab


def run_cli(main, argv, tracer: Tracer | None):
    """One CLI call with its output captured: (exit code, stdout, error,
    seconds).  A traceback counts as an error, not as an exit code."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = tracer.call("cli.main", main, list(argv)) if tracer else main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), error, seconds


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public functions the CLI reaches, by the names it looks up."""
    from weaklab import arith, induction, lattice, minimize, oracle, specdsl, tasks

    def cover(c):
        return {"nodes": c.nodes_used, "flagged": not c.proven_optimal}

    t = tracer
    t.patch(minimize, "prime_cubes", t.wrap(
        "minimize.prime_cubes", minimize.prime_cubes, lambda r: {"primes": len(r)}))
    # arith imported the search functions by name
    for name in ("max_weakness_cover", "min_literal_cover", "exact_cover_of"):
        t.patch(arith, name, t.wrap(f"minimize.{name}", getattr(arith, name), cover))
    for name in ("gen_parent_task", "sample_child", "d_recon"):
        t.patch(arith, name, t.wrap(f"arith.{name}", getattr(arith, name)))
    t.patch(arith, "run_trial", t.wrap(
        "arith.run_trial", arith.run_trial, cell_of=lambda a, k: f"{a[0]}-{a[2]}"))
    for name in ("to_csv", "to_dict", "to_table"):
        t.patch(arith.ExperimentReport, name,
                t.wrap("arith.report", getattr(arith.ExperimentReport, name)))
    t.patch(oracle, "all_derived_languages",
            t.wrap_generator("lattice.derive", oracle.all_derived_languages))
    t.patch(oracle, "sample_derived_languages",
            t.wrap("lattice.derive", oracle.sample_derived_languages))
    t.patch(oracle, "verify_weakness_optimality", t.wrap(
        "oracle.verify_weakness_optimality", oracle.verify_weakness_optimality,
        lambda r: {"tasks": r.tasks_checked}))
    for name in ("prior_report", "divergence_fixture"):
        t.patch(oracle, name, t.wrap(f"oracle.{name}", getattr(oracle, name)))
    t.patch(lattice.Language, "extension_masks",
            t.wrap("lattice.extension_masks", lattice.Language.extension_masks))
    t.patch(specdsl, "parse", t.wrap("specdsl.parse", specdsl.parse))
    t.patch(specdsl, "compile_document", t.wrap(
        "specdsl.compile_document", specdsl.compile_document,
        lambda r: {"statements": r.language.size}))
    t.patch(tasks.VTask, "models", t.wrap("tasks.models", tasks.VTask.models))
    for name in ("induce", "generalisation_probability", "prior"):
        t.patch(induction, name, t.wrap(f"induction.{name}", getattr(induction, name)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans (all but the three run.py adds)."""
    spans = tracer.spans
    self_ns = tracer.self_ns()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name, cell=None):
        return [i for i in by_name.get(name, ()) if cell is None or spans[i].cell == cell]

    def total_s(name, cell=None):
        return sum(spans[i].duration_ns for i in idx(name, cell)) / 1e9

    def self_s(name):
        return sum(self_ns[i] for i in idx(name)) / 1e9

    def data(name, key, cell=None):
        return [spans[i].data[key] for i in idx(name, cell)
                if spans[i].data and key in spans[i].data]

    def pct(values, p):
        return stats.percentile(values, p) if values else 0

    m: dict[str, float] = {}
    mwc, mlc = "minimize.max_weakness_cover", "minimize.min_literal_cover"
    for c in CELLS:
        nodes = data(mwc, "nodes", c)
        m[f"{mwc}.s.{c}"] = total_s(mwc, c)
        m[f"{mwc}.nodes_p50.{c}"] = pct(nodes, 50)
        m[f"{mwc}.nodes_p90.{c}"] = pct(nodes, 90)
        m[f"{mwc}.nodes_max.{c}"] = max(nodes, default=0)
        m[f"{mwc}.flagged.{c}"] = sum(data(mwc, "flagged", c))
        nodes = data(mlc, "nodes", c)
        m[f"{mlc}.s.{c}"] = total_s(mlc, c)
        m[f"{mlc}.nodes_p90.{c}"] = pct(nodes, 90)
        m[f"{mlc}.nodes_max.{c}"] = max(nodes, default=0)
        m[f"{mlc}.flagged.{c}"] = sum(data(mlc, "flagged", c))
        trial_ms = [spans[i].duration_ns / 1e6 for i in idx("arith.run_trial", c)]
        m[f"arith.trial_ms_p50.{c}"] = pct(trial_ms, 50)
        m[f"arith.trial_ms_p90.{c}"] = pct(trial_ms, 90)
        m[f"arith.trial_ms_max.{c}"] = max(trial_ms, default=0)
    mwc_s = total_s(mwc)
    m[f"{mwc}.nodes_per_s"] = sum(data(mwc, "nodes")) / mwc_s if mwc_s else 0
    for name in (mwc, mlc, "minimize.exact_cover_of", "arith.run_trial",
                 "oracle.verify_weakness_optimality", "specdsl.compile_document",
                 "induction.induce", "cli.main"):
        m[f"{name}.self_s"] = self_s(name)
    for name in ("minimize.prime_cubes", "minimize.exact_cover_of",
                 "arith.gen_parent_task", "arith.sample_child", "arith.d_recon",
                 "arith.report", "lattice.derive", "lattice.extension_masks",
                 "oracle.verify_weakness_optimality", "oracle.prior_report",
                 "oracle.divergence_fixture", "specdsl.parse",
                 "specdsl.compile_document", "tasks.models", "induction.induce",
                 "induction.generalisation_probability", "induction.prior"):
        m[f"{name}.s"] = total_s(name)
    m["minimize.prime_cubes.calls"] = len(idx("minimize.prime_cubes"))
    m["minimize.prime_cubes.primes_p50"] = pct(data("minimize.prime_cubes", "primes"), 50)
    vwo = "oracle.verify_weakness_optimality"
    # languages over the census cap end their span with CapacityError
    checked = [i for i in idx(vwo) if not (spans[i].data or {}).get("error")]
    ms = [spans[i].duration_ns / 1e6 for i in checked]
    m[f"{vwo}.ms_p50"] = pct(ms, 50)
    m[f"{vwo}.ms_p90"] = pct(ms, 90)
    m[f"{vwo}.ms_max"] = max(ms, default=0)
    m["oracle.tasks_checked"] = sum(data(vwo, "tasks"))
    m["oracle.tasks_per_s"] = m["oracle.tasks_checked"] / m[f"{vwo}.s"] if m[f"{vwo}.s"] else 0
    m["oracle.languages_skipped"] = len(idx(vwo)) - len(checked)
    m["lattice.statements"] = max(data("specdsl.compile_document", "statements"), default=0)
    return m


def add_into(totals: dict[str, list[int]], cells: dict[str, list[int]]) -> None:
    for cell, values in cells.items():
        row = totals.setdefault(cell, [0] * len(values))
        for j, x in enumerate(values):
            row[j] += x


def digest_update(h, text: str) -> None:
    data = text.encode("utf-8")
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    weaklab = import_weaklab()
    from weaklab import arith, cli, oracle, specdsl
    from weaklab.lattice import Statement

    gen_parent_task, sample_child = arith.gen_parent_task, arith.sample_child
    OUT_DIR.mkdir(exist_ok=True)
    results_file = str(OUT_DIR / f"results-{os.getpid()}.out")
    record: dict = {"weaklab": weaklab.__version__}
    errors: list[str] = []

    code, _, error, _ = run_cli(cli.main, workloads.warmup_argv(wl), None)
    if error is not None or code != 0:
        errors.append(f"warm-up call failed: exit {code} {error or ''}")
    record["ready"] = time.perf_counter()
    if args.setup_only:
        record["errors"] = errors
        return record

    tasks_list = workloads.corpus(ROOT)
    tracer = Tracer() if args.trace else None
    if tracer:
        install_tracing(tracer)
    ref = calibrate.Reference(tracer)
    trials: list = []
    trial_ms: list[float] = []
    trial_windows: list[tuple[float, float]] = []
    run_trial, verify = arith.run_trial, oracle.verify_weakness_optimality

    def capture_trial(*a, **k):
        ref.sample()
        t0 = time.perf_counter()
        result = run_trial(*a, **k)
        t1 = time.perf_counter()
        trial_ms.append((t1 - t0) * 1e3)
        trial_windows.append((t0, t1))
        trials.append(result)
        return result

    def sample_before_language(*a, **k):
        ref.sample()
        return verify(*a, **k)

    # These wrappers sit outside the spans of a traced run.  Trials are the
    # grids' operations: capture_trial times each one and keeps its result
    # for the cover checks.  Both take a reference sample per operation.
    arith.run_trial = capture_trial
    oracle.verify_weakness_optimality = sample_before_language

    outcomes: list[stats.CallOutcome] = []
    pass_walls: list[float] = []
    call_ms: list[float] = []
    # perf_counter (start, end) of each pass and call, to pick the
    # reference samples that normalise it
    pass_windows: list[tuple[float, float]] = []
    call_windows: list[tuple[float, float]] = []
    summaries: list = []
    cell_totals: dict[str, list[int]] = {}
    recount: dict[str, list[int]] = {}
    digest_all, digest_prefix = hashlib.sha256(), hashlib.sha256()
    start = time.perf_counter()
    index = 0
    try:
        while True:
            if args.passes is not None:
                if index >= args.passes:
                    break
            elif index >= wl.min_passes and time.perf_counter() - start >= args.seconds:
                break
            wall = 0.0
            pass_start = time.perf_counter()
            for call in workloads.pass_calls(wl, args.seed, index, results_file, tasks_list):
                if tracer:
                    tracer.op = len(call_ms)
                sampled_ms = ref.total_ms
                call_start = time.perf_counter()
                code, stdout, error, seconds = run_cli(cli.main, call.argv, tracer)
                call_windows.append((call_start, time.perf_counter()))
                seconds -= (ref.total_ms - sampled_ms) / 1e3
                ref.sample()
                wall += seconds
                call_ms.append(seconds * 1e3)
                text = stdout
                if call.output == "file" and error is None and code is not None:
                    try:
                        text = Path(results_file).read_text(encoding="utf-8")
                    except OSError as exc:
                        error = f"results file unreadable: {exc}"
                if error is not None:
                    errors.append(f"{' '.join(call.argv)}: {error.strip().splitlines()[-1]}")
                digest_update(digest_all, text)
                if index < wl.min_passes:
                    digest_update(digest_prefix, text)
                if wl.kind == "grid":
                    outcome, cells = workloads.grid_outcome(code, text, error, errors)
                    add_into(cell_totals, cells)
                    add_into(recount, workloads.check_trials(
                        trials, gen_parent_task, sample_child, errors))
                    trials.clear()
                elif wl.kind == "verify":
                    outcome, summary = workloads.verify_outcome(code, text, error, errors)
                    summaries.append(summary)
                else:
                    outcome, summary = workloads.induce_outcome(call, code, text, error, errors)
                    summaries.append(summary)
                if outcome.unexpected and error is None:
                    errors.append(f"{' '.join(call.argv)}: unexpected exit {code}")
                outcomes.append(outcome)
            pass_walls.append(wall)
            pass_windows.append((pass_start, time.perf_counter()))
            index += 1
    finally:
        arith.run_trial, oracle.verify_weakness_optimality = run_trial, verify
        if tracer:
            tracer.restore()
        Path(results_file).unlink(missing_ok=True)

    if wl.kind == "grid":
        summaries = cell_totals
        if recount != cell_totals:
            errors.append(f"report rows {cell_totals} disagree with the trials {recount}")
    if wl.kind == "induce":
        workloads.check_models(summaries, ROOT, specdsl.compile_text, Statement.of, errors)

    attempted, failed, refused = stats.tally(outcomes)
    if wl.op == "trial":
        ops = list(zip(trial_ms, trial_windows))
    elif wl.op == "task":  # per verify call, its time over its census tasks
        ops = [(ms / s[2], w) for ms, s, w in zip(call_ms, summaries, call_windows)
               if s and s[2]]
    else:
        ops = [(w * 1e3, win) for w, win in zip(pass_walls, pass_windows)]
    op_ms = [ms for ms, _ in ops]
    op_ref = [ms / ref.around(*win) for ms, win in ops]
    record.update(
        passes=index,
        pass_wall_s=pass_walls,
        call_ms=call_ms,
        op_ms=op_ms,
        op_ref=op_ref,
        ref_ms=ref.samples,
        timed_s=sum(pass_walls),
        attempted=attempted,
        failed=failed,
        refused=refused,
        errors=errors[:50],
        error_count=len(errors),
        summary=summaries,
        digest=digest_all.hexdigest(),
        digest_prefix=digest_prefix.hexdigest(),
        prefix_passes=min(index, wl.min_passes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        record["layers"] = layer_metrics(tracer)
        record["shares"] = tracer.shares("cli.main")
        trial_ns = {c: sum(sp.duration_ns for sp in tracer.spans
                           if sp.name == "arith.run_trial" and sp.cell == c) for c in CELLS}
        total_ns = sum(trial_ns.values())
        record["cell_shares"] = {c: ns / total_ns for c, ns in trial_ns.items()} if total_ns else {}
        record["spans"] = len(tracer.spans)
        spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(str(spans_file))
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--passes", type=int, default=None,
                   help="run exactly this many passes instead of a time budget")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", required=True, help="JSON record path")
    args = p.parse_args(argv)
    record = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
