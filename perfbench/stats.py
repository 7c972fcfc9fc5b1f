"""Statistics helpers of the end-to-end benchmark (tested by test_stats.py)."""

import statistics

# Percentiles considered for a latency tail, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q2, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the
    median; 0 when the median is 0."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return 0.0 if mid == 0 else (q3 - q1) / abs(mid)


def percentile(values, p):
    """The p-th percentile (0..100), interpolating linearly between the
    closest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile out of range: %r" % p)
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count, ladder=TAIL_LADDER):
    """The highest percentile of `ladder` that has at least ten of `count`
    samples beyond it, or None when even the lowest has fewer."""
    best = None
    for p in ladder:
        # count * (100 - p) / 100 >= 10, with slack for binary fractions.
        if count * (100.0 - p) >= 1000.0 - 1e-6:
            best = p
    return best


def qerror(estimate, actual):
    """max(estimate/actual, actual/estimate), both clamped to at least 1 so
    that an empty result or a zero estimate gives a finite error."""
    e = max(float(estimate), 1.0)
    a = max(float(actual), 1.0)
    return max(e / a, a / e)
