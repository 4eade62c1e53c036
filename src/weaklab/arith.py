"""Binary-arithmetic generalisation trials at the state level.

A parent task fixes an operation (add or mul) over all 2-bit operand pairs,
encoded as 8-bit strings: a1 a0 b1 b0 o3 o2 o1 o0, with the output the low
bits of the arithmetic result (position 0 is the leftmost character).
Deleting one string position from every correct string yields the parent
situations; a child samples m of the 16 correct strings.  One record,
``BinOpTask``, serves parent and child alike.  A hypothesis is a state set
that matches the child's decisions exactly on the states its situations
reach: in state mode the closed-form largest, else a searched cube cover.
Prediction keeps its states whose projection is a parent situation.

A 4-bit analogue (1-bit operands, 2-bit output) exists for brute-force
cross-checks.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .minimize import (
    DEFAULT_NODE_BUDGET,
    Cover,
    exact_cover_of,  # unused here; perfbench/worker.py traces arith.exact_cover_of
    max_weakness_cover,
    min_literal_cover,
)

OPS = {"add": operator.add, "mul": operator.mul}
MODE_STATE = "state"
MODE_PENALIZED = "penalized"

Z95 = 1.96


def encode(op: str, a: int, b: int, width: int = 8) -> int:
    """State integer for operand pair (a, b): operands then the low output
    bits of the arithmetic result."""
    operand_bits = width // 4
    output_bits = width // 2
    if not 0 <= a < 1 << operand_bits or not 0 <= b < 1 << operand_bits:
        raise ValueError("operand out of range")
    if op not in OPS:
        raise ValueError(f"unknown operation {op!r}; expected one of {tuple(OPS)}")
    out = OPS[op](a, b) & ((1 << output_bits) - 1)
    return (a << (operand_bits + output_bits)) | (b << output_bits) | out


def delete_position(state: int, pos: int, width: int) -> int:
    """Drop string position ``pos`` (0 = leftmost), giving a width-1 bit
    pattern."""
    j = width - 1 - pos
    high = state >> (j + 1)
    low = state & ((1 << j) - 1)
    return (high << j) | low


@dataclass(frozen=True)
class BinOpTask:
    """Correct strings of one operation under one deleted bit: all of them
    for the parent task, m of them for a child (``sample_child``)."""

    op: str
    width: int
    deleted_bit: int
    decisions: tuple[int, ...]
    situations: tuple[int, ...]
    decisions_mask: int
    reach_mask: int  # union of completion sets over the situations

    @classmethod
    def of(
        cls, op: str, width: int, deleted_bit: int, decisions: tuple[int, ...]
    ) -> "BinOpTask":
        """The task of sorted ``decisions``: situations are their sorted
        deleted-bit projections, the reach both completions of each."""
        flip = 1 << (width - 1 - deleted_bit)
        d_mask = reach = 0
        for d in decisions:
            d_mask |= 1 << d
            reach |= 1 << d | 1 << (d ^ flip)
        situations = tuple(sorted({delete_position(d, deleted_bit, width) for d in decisions}))
        return cls(op, width, deleted_bit, decisions, situations, d_mask, reach)

    @property
    def on(self) -> int:
        return self.decisions_mask

    def off(self) -> int:
        return self.reach_mask & ~self.decisions_mask


# every trial of an experiment asks for one of 2 * width tasks (21 µs each)
@lru_cache(maxsize=64)
def gen_parent_task(op: str, deleted_bit: int, width: int = 8) -> BinOpTask:
    operand_bits = width // 4
    if width % 4 or width < 4:
        raise ValueError("width must be a positive multiple of 4")
    if not 0 <= deleted_bit < width:
        raise ValueError(f"deleted bit must be in 0..{width - 1}")
    decisions = tuple(
        sorted(
            encode(op, a, b, width)
            for a in range(1 << operand_bits)
            for b in range(1 << operand_bits)
        )
    )
    return BinOpTask.of(op, width, deleted_bit, decisions)


def sample_child(
    task: BinOpTask, m: int, seed: int | str | random.Random
) -> BinOpTask:
    """Uniform m-subset of the parent decisions, with the parent's op, width
    and deleted bit.  Deterministic for a fixed seed."""
    if not 1 <= m <= len(task.decisions):
        raise ValueError(f"m must be in 1..{len(task.decisions)}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    decisions = tuple(sorted(rng.sample(task.decisions, m)))
    return BinOpTask.of(task.op, task.width, task.deleted_bit, decisions)


def weakest_model_state(
    child: BinOpTask,
    mode: str = MODE_PENALIZED,
    tau: Fraction = Fraction(1),
    budget: int = DEFAULT_NODE_BUDGET,
) -> Cover:
    """Weakness-side hypothesis for the child.

    ``state`` mode, and ``penalized`` at tau = 0 (its limit), return the unique
    satisfaction-maximal model (child decisions plus every state the situations
    cannot reach) by its satisfaction set.  ``penalized`` mode searches prime
    covers of the child decisions for the maximum of log2(|sat|) - tau*terms.
    """
    width, on = child.width, child.on
    if mode == MODE_STATE or mode == MODE_PENALIZED and tau == 0:
        full = (1 << (1 << width)) - 1
        return Cover(width, None, on | (full & ~child.reach_mask), True, 0)
    if mode == MODE_PENALIZED:
        return max_weakness_cover(width, on, child.off(), tau=tau, budget=budget)
    raise ValueError(f"unknown weakness mode {mode!r}")


def d_recon(task: BinOpTask, hyp: Cover) -> int:
    """States the hypothesis satisfies whose deleted-bit projection is a
    parent situation."""
    return hyp.sat & task.reach_mask


@dataclass(frozen=True)
class HypothesisOutcome:
    hypothesis: Cover
    generalised: bool
    extent: Fraction
    flagged: bool


@dataclass(frozen=True)
class TrialResult:
    op: str
    width: int
    m: int
    deleted_bit: int
    seed: str
    weak: HypothesisOutcome
    mdl: HypothesisOutcome


def _outcome(task: BinOpTask, hyp: Cover) -> HypothesisOutcome:
    recon = d_recon(task, hyp)
    inter = (recon & task.decisions_mask).bit_count()
    return HypothesisOutcome(
        hypothesis=hyp,
        generalised=recon == task.decisions_mask,
        extent=Fraction(inter, len(task.decisions)),
        flagged=not hyp.proven_optimal,
    )


def run_trial(
    op: str,
    deleted_bit: int,
    m: int,
    seed: int | str | random.Random,
    mode: str = MODE_PENALIZED,
    tau: Fraction = Fraction(1),
    budget: int = DEFAULT_NODE_BUDGET,
    width: int = 8,
    seed_label: str | None = None,
) -> TrialResult:
    """Training phase (parent, child, both hypotheses) then testing phase
    (reconstruction against the parent decisions).  The MDL side is the
    minimum total-literal cover of the child decisions, unreachable states
    free.  Search fallbacks flag the trial; no trial is dropped."""
    if seed_label is None:
        seed_label = "external-rng" if isinstance(seed, random.Random) else str(seed)
    task = gen_parent_task(op, deleted_bit, width)
    child = sample_child(task, m, seed)
    hyp_w = weakest_model_state(child, mode=mode, tau=tau, budget=budget)
    hyp_mdl = min_literal_cover(width, child.on, child.off(), budget=budget)
    return TrialResult(
        op=op,
        width=width,
        m=m,
        deleted_bit=deleted_bit,
        seed=seed_label,
        weak=_outcome(task, hyp_w),
        mdl=_outcome(task, hyp_mdl),
    )


# ---------------------------------------------------------------------------
# experiments


def wald_ci(rate: float, trials: int) -> float:
    """Half-width of the 95% Wald interval for a binomial rate."""
    if trials <= 0:
        return 0.0
    return Z95 * math.sqrt(rate * (1.0 - rate) / trials)


# Per-side report columns: CSV suffix, JSON key, table header, format, CellStats field
COLUMNS = (
    ("rate", "rate", "Rate", ">5.2f", "rate"),
    ("ci", "ci95", "+-95%", ">6.3f", "ci"),
    ("ext", "avg_extent", "AvgExt", ">6.2f", "avg_extent"),
    ("se", "stderr", "StdErr", ">6.3f", "stderr"),
)
SIDES = (("w", "weakness", "weak"), ("mdl", "mdl", "mdl"))  # CSV, JSON/table, CellRow


def _json(x):
    return [x.numerator, x.denominator] if isinstance(x, Fraction) else x


@dataclass(frozen=True)
class CellStats:
    rate: Fraction
    ci: float
    avg_extent: Fraction
    stderr: float
    flagged: int


@dataclass(frozen=True)
class CellRow:
    op: str
    dk: int
    trials: int
    weak: CellStats
    mdl: CellStats
    flagged: int  # trials where either search exhausted its budget

    def cells(self, fmt: str | None = None) -> list[list[str]]:
        """Per side, each column's value formatted by ``fmt`` or its table format."""
        return [
            [format(float(getattr(side, c[4])), fmt or c[3]) for c in COLUMNS]
            for side in (getattr(self, attr) for *_, attr in SIDES)
        ]


@dataclass
class ExperimentReport:
    master_seed: str
    mode: str
    tau: Fraction
    width: int
    rows: list[CellRow]
    trial_results: list[TrialResult]  # every trial, in seed order

    def to_csv(self) -> str:
        head = ",".join(f"{c[0]}_{side}" for side, _, _ in SIDES for c in COLUMNS)
        lines = [f"op,dk,trials,{head},flagged_trials"]
        for r in self.rows:
            cells = ",".join(x for side in r.cells(".3f") for x in side)
            lines.append(f"{r.op},{r.dk},{r.trials},{cells},{r.flagged}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        def cell(r: CellRow, c: CellStats) -> dict:
            columns = {key: _json(getattr(c, field)) for _, key, _, _, field in COLUMNS}
            return {"trials": r.trials, **columns, "flagged": c.flagged}

        return {
            "master_seed": self.master_seed,
            "mode": self.mode,
            "tau": _json(self.tau),
            "width": self.width,
            "rows": [
                {
                    "op": r.op,
                    "dk": r.dk,
                    "trials": r.trials,
                    **{key: cell(r, getattr(r, attr)) for _, key, attr in SIDES},
                    "flagged_trials": r.flagged,
                }
                for r in self.rows
            ],
        }

    def to_table(self) -> str:
        heads = "".join(f" {c[2]:{c[3].split('.')[0]}}" for c in COLUMNS)
        lines = [
            f"mode={self.mode} tau={self.tau} seed={self.master_seed}",
            f"{'op':<4} {'|Dk|':>4} {'trials':>6} |{heads} |{heads} | {'flag':>4}",
            f"{'':<4} {'':<4} {'':<6} |"
            + "".join(f" {label:^{len(heads)}} |" for _, label, _ in SIDES),
        ]
        for r in self.rows:
            sides = "".join("".join(f" {x}" for x in side) + " |" for side in r.cells())
            lines.append(f"{r.op:<4} {r.dk:>4} {r.trials:>6} |{sides} {r.flagged:>4}")
        return "\n".join(lines) + "\n"


def _cell_stats(outcomes: Sequence[HypothesisOutcome]) -> CellStats:
    n = len(outcomes)
    gen = sum(1 for o in outcomes if o.generalised)
    rate = Fraction(gen, n)
    ext_sum = sum((o.extent for o in outcomes), Fraction(0))
    avg = ext_sum / n
    if n > 1:
        sq = sum((o.extent * o.extent for o in outcomes), Fraction(0))
        var = (sq - ext_sum * ext_sum / n) / (n - 1)
        stderr = math.sqrt(float(var) / n) if var > 0 else 0.0
    else:
        stderr = 0.0
    return CellStats(
        rate=rate,
        ci=wald_ci(float(rate), n),
        avg_extent=avg,
        stderr=stderr,
        flagged=sum(1 for o in outcomes if o.flagged),
    )


def trial_seed(master_seed: int | str, op: str, m: int, index: int) -> str:
    return f"{master_seed}|{op}|{m}|{index}"


def run_experiment(
    ops: Iterable[str],
    m_list: Iterable[int],
    trials: int,
    master_seed: int | str,
    mode: str = MODE_PENALIZED,
    tau: Fraction = Fraction(1),
    budget: int = DEFAULT_NODE_BUDGET,
    width: int = 8,
) -> ExperimentReport:
    """Run ``trials`` seeded trials per (op, |D_k|) cell.

    The deleted bit is resampled uniformly per trial from the trial seed.
    Aggregation is exact-rational, so the report depends only on the seeds.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    results: list[TrialResult] = []
    for op in ops:
        for m in m_list:
            for i in range(trials):
                seed = trial_seed(master_seed, op, m, i)
                rng = random.Random(seed)
                deleted_bit = rng.randrange(width)
                results.append(
                    run_trial(
                        op,
                        deleted_bit,
                        m,
                        rng,
                        mode=mode,
                        tau=tau,
                        budget=budget,
                        width=width,
                        seed_label=seed,
                    )
                )
            cell = results[-trials:]
            rows.append(
                CellRow(
                    op=op,
                    dk=m,
                    trials=trials,
                    weak=_cell_stats([t.weak for t in cell]),
                    mdl=_cell_stats([t.mdl for t in cell]),
                    flagged=sum(1 for t in cell if t.weak.flagged or t.mdl.flagged),
                )
            )
    return ExperimentReport(
        master_seed=str(master_seed),
        mode=mode,
        tau=tau,
        width=width,
        rows=rows,
        trial_results=results,
    )
