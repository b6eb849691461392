"""Order statistics the benchmark reports. The metric names and units are
those listed in BENCHMARK.json."""

from __future__ import annotations

import statistics

#: A tail needs this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int] | None:
    """Latency at the highest percentile with at least ``TAIL_BEYOND``
    samples beyond it: (value, percentile, sample count), or None when there
    are too few samples.

    With n sorted samples that is the one at 1-based rank n - TAIL_BEYOND;
    the percentile is the share of samples at or below that rank.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)
