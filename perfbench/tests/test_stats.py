"""Tail-percentile rule, fingerprint, failure bound.

Run from the repo root: ``python3 -m pytest perfbench/tests``.
"""

import math

import pytest

from perfbench.stats import (failure_upper_bound, fingerprint, latency_tail,
                             percentile, tail_percentile)


@pytest.mark.parametrize("n, expected", [
    (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (1200, 99.0),
    (9999, 99.0), (10000, 99.9), (250000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_latency_tail_reports_percentile_and_count():
    values = [float(i) for i in range(1, 1001)]
    value, pct, n = latency_tail(values)
    assert (pct, n) == (99.0, 1000)
    assert value == pytest.approx(percentile(values, 99.0))
    # ten samples lie strictly beyond the reported tail
    assert sum(v > value for v in values) == 10


def test_latency_tail_refuses_small_samples():
    with pytest.raises(ValueError):
        latency_tail([1.0] * 99)


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([5.0], 90.0) == 5.0


def test_fingerprint_is_order_and_bit_sensitive():
    a = [(0, "done", 1.0, 8.0), (1, "done", 2.5, 8.0)]
    assert fingerprint(a) == fingerprint([tuple(r) for r in a])
    assert fingerprint(a) != fingerprint(list(reversed(a)))
    nudged = [(0, "done", math.nextafter(1.0, 2.0), 8.0), a[1]]
    assert fingerprint(a) != fingerprint(nudged)
    assert fingerprint(a) != fingerprint([(0, "failed", 1.0, 8.0), a[1]])


def test_fingerprint_does_not_merge_fields():
    assert fingerprint([("ab", "c")]) != fingerprint([("a", "bc")])


def test_failure_bound_never_zero_and_monotone():
    zero = failure_upper_bound(0, 1000)
    assert zero == pytest.approx(1 - 0.05 ** (1 / 1000))
    assert 0 < zero < 3.1 / 1000
    one = failure_upper_bound(1, 1000)
    assert one > 1.5 * zero
    assert failure_upper_bound(2, 1000) > one
    assert failure_upper_bound(5, 5) == 1.0


def test_failure_bound_matches_binomial_tail():
    # P(X <= 1 | n=100, p=bound) must equal alpha at the bound.
    n, p = 100, failure_upper_bound(1, 100)
    cdf = (1 - p) ** n + n * p * (1 - p) ** (n - 1)
    assert cdf == pytest.approx(0.05, rel=1e-6)

