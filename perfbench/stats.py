"""Order statistics for benchmark timings, and the failure tally.

Timings are reported as a median and the highest percentile that still
has at least ten samples beyond it, together with the sample count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# Percentiles considered for the tail report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # exact, so that p99.9 of 10,000 samples is rank 9,990, not 9,991
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(values: Sequence[float]) -> tuple[float | None, float | None, int]:
    """The highest percentile in TAIL_CANDIDATES with at least MIN_BEYOND
    samples beyond it, as (p, value, n); (None, None, n) when the sample is
    too small for any of them."""
    n = len(values)
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p, percentile(values, p), n
    return None, None, n


def describe(values: Sequence[float], unit: str) -> str:
    """One-line summary: median, the highest well-supported percentile and n."""
    if not values:
        return "n=0"
    p, v, n = tail_percentile(values)
    tail = f", p{p:g}={v:.4g} {unit}" if p not in (None, 50.0) else ""
    return f"median={statistics.median(values):.4g} {unit}{tail} (n={n})"


@dataclass(frozen=True)
class CallOutcome:
    """What one CLI call attempted and how it ended.

    ``ops`` counts the operations inside the call (trials, languages or
    induce calls).  ``refused`` counts those the program declined to finish
    as asked, by its documented limits: trials flagged because the search
    budget ran out, and languages skipped over the census cap.  ``violations``
    counts those whose answer was wrong.  A call that raised or returned an
    exit code other than the documented one fails as a whole.
    """

    ops: int
    refused: int
    exit_code: int | None
    expected_exit: int | None
    error: str | None = None
    violations: int = 0

    @property
    def unexpected(self) -> bool:
        return self.error is not None or self.exit_code != self.expected_exit


def tally(outcomes: Iterable[CallOutcome]) -> tuple[int, int, int]:
    """(attempted, failed, refused) over all operations of the given calls.

    ``failed`` holds the operations of calls that ended unexpectedly and the
    verification violations; ``refused`` the budget-flagged trials and the
    languages skipped over the cap of the other calls.  ``failed_share`` is
    (failed + refused) / attempted."""
    attempted = failed = refused = 0
    for o in outcomes:
        ops = max(o.ops, 1)
        attempted += ops
        if o.unexpected:
            failed += ops
        else:
            bad = min(o.violations, ops)
            failed += bad
            refused += min(o.refused, ops - bad)
    return attempted, failed, refused


def failed_share(attempted: int, failed: int, refused: int) -> float:
    return (failed + refused) / max(attempted, 1)
