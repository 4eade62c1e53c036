"""weaklab benchmark: four workloads through ``weaklab.cli.main``.

    python3 perfbench/run.py --workload grid-penalized --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  Every measured run is a fresh,
single-threaded ``worker.py`` process.  ``--trace 0`` reports the
end-to-end metrics of the workload: ``setup_s`` (median of six
fresh-process set-ups), ``op_p50_ref`` (median operation time over the
reference kernel's time around it, see calibrate.py) and ``peak_rss_mb``.
``--trace 1`` makes the traced run, which covers every workload whatever
``--workload`` names: each workload runs untraced for its share of
``--seconds``, then exactly the same passes again traced, both runs must
produce identical results, and each per-layer metric is taken from the
workload that exercises its layer (see HOME).  ``--workload all`` runs every
workload untraced, then the traced run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed`` counts verification
violations and the operations of calls that ended in an unexpected exit code
or a traceback.  Budget-flagged trials and languages skipped over the census
cap are the program's documented refusals, not failures: they are printed as
``refused`` and in ``failed_share`` = (failed + refused) / attempted, and as
the per-layer ``flagged`` and ``languages_skipped`` metrics.  The exit code
is 1 when a correctness check failed and 2 when the checkout has no
weaklab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402
from worker import LAYER_METRICS, OUT_DIR, digest_update  # noqa: E402

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + tuple(LAYER_METRICS)}
SETUP_PROBES = 5  # set-up-only processes, plus the measured worker itself
WORKER_TIMEOUT_S = 170

# The traced run's share of --seconds per workload: half for the penalized
# grid, so that its (add, 14) cell meets budget-flagged trials.  Together
# with the traced repeat and verify's single 7-9 s pass it takes 60-100 s.
TRACE_SHARE = {"grid-penalized": 0.5, "grid-state": 1 / 6,
               "verify-sweep": 1 / 6, "induce-corpus": 1 / 6}
# The workload each per-layer metric is measured on, by name prefix, first
# match: the one whose time the layer carries.  Metrics with no home
# (cli.main.self_s, trace.overhead_s) are summed over all four.
HOME = (
    ("minimize.max_weakness_cover.", "grid-penalized"),
    ("minimize.", "grid-state"),
    ("arith.", "grid-penalized"),
    ("oracle.", "verify-sweep"),
    ("lattice.derive.", "verify-sweep"),
    ("lattice.extension_masks.", "verify-sweep"),
    ("lattice.statements", "induce-corpus"),
    ("specdsl.", "induce-corpus"),
    ("tasks.", "induce-corpus"),
    ("induction.", "induce-corpus"),
    ("cli.call_", "induce-corpus"),
)
SUMMED = ("cli.main.self_s", "trace.overhead_s")


def home(metric: str) -> str | None:
    return next((w for prefix, w in HOME if metric.startswith(prefix)), None)


def source_sha256() -> str:
    """SHA-256 over weaklab's source files: it names the code measured
    also where the checkout carries no git revision."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest_update(h, str(path.relative_to(ROOT)))
        digest_update(h, path.read_text(encoding="utf-8"))
    return h.hexdigest()


def environment() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {
        "git_revision": rev,
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg": loadavg,
    }


def worker(workload: str, seed: int, seconds: float, *, passes: int | None = None,
           trace: bool = False, setup_only: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and return its record, with
    ``setup_s`` measured from just before the process starts."""
    OUT_DIR.mkdir(exist_ok=True)
    result = OUT_DIR / f"record-{os.getpid()}-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--result", str(result)]
    if passes is not None:
        argv += ["--passes", str(passes)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          timeout=WORKER_TIMEOUT_S)
    try:
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(argv[1:])}")
        record = json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink(missing_ok=True)
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # child's reading and ours share an origin
    record["setup_s"] = record["ready"] - t0
    return record


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [worker(workload, seed, seconds, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    rec = worker(workload, seed, seconds)
    setups.append(rec["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ref": statistics.median(rec["op_ref"]),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    rec["setup_samples"] = setups
    return metrics, rec


def traced(seed: int, seconds: float) -> tuple[dict, list[tuple[str, dict, dict]]]:
    """The traced run: per-layer metrics, and (workload, untraced record,
    traced record) for every workload."""
    metrics = dict.fromkeys(SUMMED, 0.0)
    runs = []
    for name, share in TRACE_SHARE.items():
        base = worker(name, seed, seconds * share)
        rec = worker(name, seed, seconds, passes=base["passes"], trace=True)
        layers = dict(rec["layers"])
        layers["cli.call_p50_ms"] = stats.percentile(base["call_ms"], 50)
        layers["cli.call_p90_ms"] = stats.percentile(base["call_ms"], 90)
        layers["trace.overhead_s"] = rec["timed_s"] - base["timed_s"]
        for metric, _, _ in LAYER_METRICS:
            if metric in SUMMED:
                metrics[metric] += layers[metric]
            elif home(metric) == name:
                metrics[metric] = layers[metric]
        # the traced run must have run the same trials with the same results
        for key in ("summary", "digest", "attempted", "failed", "refused"):
            if rec[key] != base[key]:
                rec["errors"].append(f"traced and untraced runs differ in {key}")
                rec["error_count"] += 1
        runs.append((name, base, rec))
    return {name: metrics[name] for name, _, _ in LAYER_METRICS}, runs


def report(workload: str, label: str, rec: dict) -> None:
    share = stats.failed_share(rec["attempted"], rec["failed"], rec["refused"])
    print(f"[{workload}] {label}: passes={rec['passes']} attempted={rec['attempted']} "
          f"failed={rec['failed']} refused={rec['refused']} failed_share={share:.4f}")
    print(f"[{workload}] {label}: op {stats.describe(rec['op_ms'], 'ms')}; "
          f"reference kernel {stats.describe(rec['ref_ms'], 'ms')}; "
          f"call {stats.describe(rec['call_ms'], 'ms')}; "
          f"pass {stats.describe(rec['pass_wall_s'], 's')}")
    print(f"[{workload}] {label}: sha256 of results, first {rec['prefix_passes']} "
          f"passes {rec['digest_prefix']}; all passes {rec['digest']}")
    if "setup_samples" in rec:
        print(f"[{workload}] {label}: setup samples "
              + " ".join(f"{s:.4f}" for s in rec["setup_samples"]))
    if workload.startswith("grid"):
        for cell, (trials, gw, gm, flagged) in sorted(rec["summary"].items()):
            print(f"[{workload}] {label}: cell {cell} trials={trials} "
                  f"generalised weakness={gw} mdl={gm} flagged={flagged}")
    for e in rec["errors"]:
        print(f"[{workload}] {label}: CHECK FAILED: {e}")


def print_metrics(workload: str, metrics: dict) -> None:
    for name, value in metrics.items():
        print(f"[{workload}] {name} = {value:.6g} {UNITS[name]}")


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    print(f"[{workload}] start: {json.dumps(environment())}")
    metrics, rec = untraced(workload, seed, seconds)
    report(workload, "untraced", rec)
    print_metrics(workload, metrics)
    print(f"[{workload}] end: {json.dumps(environment())}")
    return {"correct": rec["error_count"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def run_traced(seed: int, seconds: float) -> dict:
    print(f"[trace] start: {json.dumps(environment())}")
    metrics, runs = traced(seed, seconds)
    for workload, base, rec in runs:
        report(workload, "untraced", base)
        report(workload, "traced", rec)
        print(f"[{workload}] spans: {rec['spans']} written to {rec['spans_file']}")
        for name, (incl, own) in sorted(rec["shares"].items(), key=lambda kv: -kv[1][0]):
            print(f"[{workload}] share of traced CLI time: {name} {incl:.1%} (self {own:.1%})")
        for cell, share in rec["cell_shares"].items():
            print(f"[{workload}] share of trial time: {cell} {share:.1%}")
    print_metrics("trace", metrics)
    print(f"[trace] end: {json.dumps(environment())}")
    return {
        "correct": all(r["error_count"] == 0 for _, b, t in runs for r in (b, t)),
        "attempted": sum(b["attempted"] for _, b, _ in runs),
        "failed": sum(b["failed"] for _, b, _ in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "weaklab" / "__init__.py").is_file():
        print(f"perfbench: no weaklab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            parts = [(f"{name}/", run_untraced(name, args.seed, args.seconds))
                     for name in workloads.WORKLOADS]
            parts.append(("", run_traced(args.seed, args.seconds)))
        elif args.trace:
            parts = [("", run_traced(args.seed, args.seconds))]
        else:
            parts = [("", run_untraced(args.workload, args.seed, args.seconds))]
        result = {
            "correct": all(r["correct"] for _, r in parts),
            "attempted": sum(r["attempted"] for _, r in parts),
            "failed": sum(r["failed"] for _, r in parts),
            "metrics": {prefix + k: {"value": v, "unit": UNITS[k]}
                        for prefix, r in parts for k, v in r["metrics"].items()},
        }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
