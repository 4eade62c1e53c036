"""The four benchmark workloads and the correctness checks on their output.

Every workload is a closed loop of passes, one client: the next CLI call
starts when the previous one returns.  A pass is the workload's unit of
work, driven through ``weaklab.cli.main`` exactly as a user would type it;
the pass seed comes from the benchmark seed and the pass index.

* ``grid-penalized``: the criterion-8 grid, ``experiment --op both
  --dk 6,10,14 --mode penalized --tau 1`` at the default node budget.  Nearly
  all of its time is the penalized cover search, most of it in (add, 14),
  whose budget-flagged trials it keeps and counts as refused.
* ``grid-state``: the same grid with ``--mode state``, which skips the
  penalized search; prime generation and the minimum-literal search carry
  it.  A penalized-search change predicts no change here.
* ``verify-sweep``: ``verify --max-states 4 --max-vocab 4``, many tiny
  languages and the census sweep, including the 4-state sampling path that
  the default caps never reach.
* ``induce-corpus``: ``induce`` on every task of ``specs/*.wl`` with both
  proxies, compiling the spec afresh on every call; the only workload with
  6,561-statement languages and the only one running specdsl, tasks and
  induction.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from stats import CallOutcome

GRID_OPS = ("add", "mul")
GRID_DK = (6, 10, 14)
CELLS = tuple(f"{op}-{m}" for op in GRID_OPS for m in GRID_DK)
# Trials per cell in one pass.  A pass of 12 trials typically takes 0.3 s,
# so a 20 s run holds 20-30 passes and some 50 (add, 14) trials, of which
# about 6% exhaust the default node budget: every run meets flagged trials.
TRIALS_PER_CELL = 2

# Documented results the checks hold the program to.
DIVERGENCE_WINNERS = {"weakness": "{j,k}", "mdl": "{z}"}
FIXTURE_WINNERS = {"weakness_winner": "{j,k}", "mdl_winner": "{z}"}


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    output: str  # "file": the results file is the call's output; "stdout"
    key: tuple = ()  # what the call asked for, for the checks


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "grid", "verify" or "induce"
    op: str  # the operation op_p50_ref times: a "trial", a census "task" or a "pass"
    min_passes: int  # also the passes the comparable results digest covers
    mode: str | None = None


# The operation is chosen so that its typical time is steady across seeds.
# In the penalized grid about half of the (add, 14) trials are hard (0.1-3.5 s
# against 10 ms), so any sum over a few trials, a pass included, swings with
# the seed; the median trial does not.  A verify call's time swings by a
# sixth with the seed's 4-state sample, its time per census task does not.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-penalized", "grid", "trial", 5, mode="penalized"),
        Workload("grid-state", "grid", "trial", 5, mode="state"),
        Workload("verify-sweep", "verify", "task", 1),
        Workload("induce-corpus", "induce", "pass", 10),
    )
}


def pass_seed(seed: int, index: int) -> str:
    return f"perfbench-{seed}.{index}"


def corpus(root: Path) -> list[tuple[str, str]]:
    """(spec path relative to root, task name) for every task of specs/*.wl,
    read with a regular expression so that the corpus does not depend on
    the parser under test."""
    out = []
    for path in sorted((root / "specs").glob("*.wl")):
        text = path.read_text(encoding="utf-8")
        for name in re.findall(r"^\s*task\s+([A-Za-z_][A-Za-z0-9_]*)", text, re.M):
            out.append((str(path.relative_to(root)), name))
    return out


def warmup_argv(w: Workload) -> tuple[str, ...]:
    """A small call made during set-up: it imports every module the
    workload uses and, for the grids, builds the width-8 cube tables."""
    if w.kind == "grid":
        return ("experiment", "--op", "add", "--dk", "1", "--trials", "1",
                "--seed", "perfbench-warmup", "--mode", w.mode)
    if w.kind == "verify":
        return ("verify", "--max-states", "1", "--max-vocab", "1")
    return ("induce", "--spec", "specs/tiny.wl", "--task", "t1")


def pass_calls(w: Workload, seed: int, index: int, results_file: str,
               tasks: list[tuple[str, str]]) -> list[Call]:
    s = pass_seed(seed, index)
    if w.kind == "grid":
        argv = ("experiment", "--op", "both",
                "--dk", ",".join(map(str, GRID_DK)),
                "--trials", str(TRIALS_PER_CELL), "--seed", s,
                "--mode", w.mode, "--tau", "1",
                "--out", results_file, "--format", "structured")
        return [Call(argv, "file")]
    if w.kind == "verify":
        argv = ("verify", "--max-states", "4", "--max-vocab", "4",
                "--seed", s, "--out", results_file)
        return [Call(argv, "file")]
    calls = [
        Call(("induce", "--spec", spec, "--task", task, "--proxy", proxy,
              "--format", "structured"), "stdout", (spec, task, proxy))
        for spec, task in tasks
        for proxy in ("weakness", "mdl")
    ]
    random.Random(s).shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# reading one call's output


def grid_outcome(exit_code: int | None, text: str, error: str | None,
                 errors: list[str]) -> tuple[CallOutcome, dict]:
    """Outcome and per-cell [trials, generalised weakness, generalised mdl,
    flagged] of one experiment call."""
    cells: dict[str, list[int]] = {}
    expected_ops = len(CELLS) * TRIALS_PER_CELL
    if error is not None or exit_code not in (0, 2):
        return CallOutcome(expected_ops, 0, exit_code, 0, error), cells
    rows = json.loads(text)["rows"]
    for r in rows:
        trials = r["trials"]
        gen = [Fraction(*r[side]["rate"]) * trials for side in ("weakness", "mdl")]
        if any(g.denominator != 1 for g in gen):
            errors.append(f"cell {r['op']}-{r['dk']}: rate times trials is not whole")
        cells[f"{r['op']}-{r['dk']}"] = [trials, int(gen[0]), int(gen[1]),
                                         r["flagged_trials"]]
    ops = sum(c[0] for c in cells.values())
    flagged = sum(c[3] for c in cells.values())
    return CallOutcome(ops, flagged, exit_code, 2 if flagged else 0), cells


def verify_outcome(exit_code: int | None, text: str, error: str | None,
                   errors: list[str]) -> tuple[CallOutcome, list[int]]:
    """Outcome and [languages checked, skipped over the cap, tasks checked,
    violations] of one verify call; checks the fixture and the sweep."""
    if error is not None or exit_code not in (0, 1):
        return CallOutcome(1, 0, exit_code, 0, error), []
    out = json.loads(text)
    fx = out["fixture"]
    if not fx["passed"]:
        errors.append("verify: fixture did not PASS")
    for key, want in FIXTURE_WINNERS.items():
        if fx[key] != want:
            errors.append(f"verify: fixture {key} {fx[key]} != {want}")
    opt = out["optimality"]
    violations = opt["violation_count"]
    if violations:
        errors.append(f"verify: {violations} weakness-optimality violation(s)")
    checked = opt["languages_checked"]
    skipped = opt["languages_skipped_over_cap"]
    summary = [checked, skipped, opt["tasks_checked"], violations]
    outcome = CallOutcome(checked + skipped, skipped, exit_code,
                          1 if violations else 0, violations=violations)
    return outcome, summary


def induce_expected_exit(task: str) -> int:
    # The *_parent tasks of the arithmetic specs have empty model sets in
    # their conjunctive vocabulary; `induce` documents exit 1 for them.
    return 1 if task.endswith("_parent") else 0


def induce_outcome(call: Call, exit_code: int | None, text: str,
                   error: str | None, errors: list[str]) -> tuple[CallOutcome, list]:
    """Outcome and [spec, task, proxy, exit, model] of one induce call."""
    spec, task, proxy = call.key
    expected = induce_expected_exit(task)
    outcome = CallOutcome(1, 0, exit_code, expected, error)
    model = None
    if outcome.unexpected:
        return outcome, [spec, task, proxy, exit_code, model]
    if exit_code == 1:
        if text != "model set empty\n":
            errors.append(f"induce {spec}/{task}: exit 1 without 'model set empty'")
    else:
        result = json.loads(text)
        model = result["model"]
        if result["task"] != task or result["proxy"] != proxy:
            errors.append(f"induce {spec}/{task}/{proxy}: answered another question")
        if spec.endswith("divergence.wl") and task == "alpha":
            want = DIVERGENCE_WINNERS[proxy]
            if model != want:
                errors.append(f"induce divergence.wl/alpha {proxy}: {model} != {want}")
    return outcome, [spec, task, proxy, exit_code, model]


# ---------------------------------------------------------------------------
# checks that need the program's objects


def check_trials(trials, gen_parent_task: Callable, sample_child: Callable,
                 errors: list[str]) -> dict[str, list[int]]:
    """Recompute each trial's child from its seed label, as run_experiment
    derives it, and check that both hypotheses cover ON and avoid OFF.
    Returns per-cell [trials, generalised weakness, generalised mdl,
    flagged] recounted from the trial results."""
    cells: dict[str, list[int]] = {}
    for t in trials:
        task = gen_parent_task(t.op, t.deleted_bit, t.width)
        rng = random.Random(t.seed)
        if rng.randrange(t.width) != t.deleted_bit:
            errors.append(f"trial {t.seed}: deleted bit does not follow its seed")
            continue
        child = sample_child(task, t.m, rng)
        off = child.off()
        for side, o in (("weakness", t.weak), ("mdl", t.mdl)):
            sat = o.hypothesis.sat
            if sat & child.on != child.on:
                errors.append(f"trial {t.seed}: {side} cover misses an ON state")
            if sat & off:
                errors.append(f"trial {t.seed}: {side} cover hits an OFF state")
        c = cells.setdefault(f"{t.op}-{t.m}", [0, 0, 0, 0])
        c[0] += 1
        c[1] += t.weak.generalised
        c[2] += t.mdl.generalised
        c[3] += t.weak.flagged or t.mdl.flagged
    return cells


def check_models(calls: list[list], root: Path, compile_text: Callable,
                 statement_of: Callable, errors: list[str]) -> None:
    """Every model induce printed must pass task.is_model."""
    seen = {(spec, task, model) for spec, task, _, code, model in calls
            if code == 0 and model is not None}
    compiled = {}
    for spec, task, model in sorted(seen):
        if spec not in compiled:
            compiled[spec] = compile_text((root / spec).read_text(encoding="utf-8"))
        comp = compiled[spec]
        lang = comp.language
        names = [n for n in model.strip("{}").split(",") if n]
        h = statement_of(lang.vocab.index_of(n) for n in names)
        if not comp.tasks[task].is_model(h):
            errors.append(f"induce {spec}/{task}: {model} is not a model")
