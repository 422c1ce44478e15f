"""Small, dependency-free statistics for the benchmark's results.

Everything here is pure: no simulator imports, so the unit tests in
``perfbench/tests`` exercise it without building a testbed.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
#: Samples that must lie beyond a tail percentile for it to be reported.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[float]:
    """The highest of p99.9 / p99 / p90 with >= 10 of ``n`` samples
    beyond it, or None when even p90 has fewer than 10 beyond."""
    for pct in TAIL_PERCENTILES:
        # round() guards against 1000 * 0.01 landing at 9.999999...
        if round(n * (100.0 - pct) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return pct
    return None


def latency_tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) under the tail rule."""
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError(f"{len(values)} samples are too few for a tail "
                         f"percentile (p90 needs {10 * TAIL_MIN_BEYOND})")
    return percentile(values, pct), pct, len(values)


def failure_upper_bound(failed: int, attempted: int,
                        alpha: float = 0.05) -> float:
    """One-sided (1 - alpha) Clopper-Pearson upper bound on a failure
    probability after ``failed`` failures in ``attempted`` trials.

    With no failures this is ``1 - alpha ** (1 / attempted)`` (about
    3 / attempted): never zero, and one new failure raises it by more
    than half at the workload sizes used here.
    """
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError("need 0 <= failed <= attempted, attempted >= 1")
    if failed == attempted:
        return 1.0
    if failed == 0:
        return 1.0 - alpha ** (1.0 / attempted)

    def cdf(p: float) -> float:
        # P(X <= failed) for X ~ Binomial(attempted, p), in log space.
        total = 0.0
        for i in range(failed + 1):
            total += math.exp(
                math.lgamma(attempted + 1) - math.lgamma(i + 1)
                - math.lgamma(attempted - i + 1)
                + i * math.log(p) + (attempted - i) * math.log1p(-p))
        return total

    lo, hi = failed / attempted, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if cdf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def fingerprint(records: Iterable[tuple]) -> str:
    """SHA-256 over per-request outcome records.

    Floats enter through ``float.hex`` so two runs match only when every
    completion time and byte count is bit-identical.
    """
    h = hashlib.sha256()
    for record in records:
        fields = [(float(v).hex() if isinstance(v, float) else repr(v))
                  for v in record]
        h.update(("\x1f".join(fields) + "\x1e").encode())
    return h.hexdigest()


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values: List[float]) -> float:
    return float(statistics.median(values))
