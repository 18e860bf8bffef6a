"""Order statistics of op latencies, and how many passes a run makes."""

import math
import time
from fractions import Fraction

TAIL_SAMPLES = 10
PERCENTILES = (50, 90, 95, 99, 99.9)


def _rank(n, p):
    # exact, so that p99.9 of 10000 samples is the 9990th
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    return xs[_rank(len(xs), p) - 1]


def beyond(n, p):
    """Samples that lie beyond the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n):
    """The highest percentile of PERCENTILES with at least TAIL_SAMPLES
    samples beyond it, or None when even the median has fewer."""
    ok = [p for p in PERCENTILES if beyond(n, p) >= TAIL_SAMPLES]
    return ok[-1] if ok else None


def median(values):
    xs = sorted(values)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def pass_plan(trace, seconds):
    """Yield, per pass of a run, whether it is traced.

    A traced run is a traced pass between two untraced ones, so that the
    tracing overhead is not confused with the first pass warming up
    (allocator, caches).  Otherwise whole
    untraced passes fill the run: another one starts when the run then ends
    nearer to `seconds` than it does by stopping now, and there is always
    at least one.
    """
    if trace:
        yield from (False, True, False)
        return
    start = time.monotonic()
    passes = 0
    while passes == 0 or (time.monotonic() - start) * (1 + 0.5 / passes) <= seconds:
        yield False
        passes += 1
