"""Statistics helpers of the benchmark (pure functions, unit-tested in
test_stats.py)."""

import math
import statistics

MIN_BEYOND = 10


def nearest_rank(values, q):
    """Nearest-rank percentile of ``values`` at quantile ``q`` in (0, 1].

    Returns ``(value, n, beyond)``: the sample at rank ceil(q * n), the
    sample count, and how many samples lie beyond that rank.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[rank - 1], n, n - rank


def reportable_percentile(values, q, min_beyond=MIN_BEYOND):
    """The nearest-rank percentile with its sample count, or None when
    fewer than ``min_beyond`` samples lie beyond it (a tail estimated
    from fewer samples is not reported)."""
    value, n, beyond = nearest_rank(values, q)
    if beyond < min_beyond:
        return None
    return {"value": value, "n": n, "beyond": beyond}


def job_latency(due_s, accepted_s, wall_s):
    """Client-visible latency of an open-loop job, from its scheduled
    arrival to its result. ``accepted_s`` is when the submit call the
    service accepted began, so the first term holds the generator's lag
    and every ``kQueueFull`` retry before that call; ``wall_s`` is the
    service's own time, which starts inside the accepted call."""
    if accepted_s < due_s:
        raise ValueError("job submitted before it was due")
    return (accepted_s - due_s) + wall_s


def window_median(step_s, start, count):
    """Median per-step time over the fixed window [start, start + count)
    of a run's recorded steps. Raises if the run recorded fewer steps, so
    a short run can never report a median over a different window."""
    if start < 0 or count < 1:
        raise ValueError("empty window")
    if len(step_s) < start + count:
        raise ValueError(
            f"window [{start}, {start + count}) needs {start + count} steps, "
            f"run recorded {len(step_s)}")
    return statistics.median(step_s[start:start + count])


def window_min(step_s, start, count):
    """Fastest step of the same fixed window. Timing noise from other
    work on the host only ever lengthens a step, so on a shared host the
    minimum is the estimate of a step's own cost that the noise moves
    least (Chen and Revels, "Robust benchmarking in noisy environments",
    2016)."""
    window_median(step_s, start, count)  # validates the window
    return min(step_s[start:start + count])


def cycle_rate(step_s, start, count, cycle):
    """Steps per second over the window, as the median over its whole
    remesh cycles of (cycle steps / cycle time). Every cycle holds one
    remesh step, so the rate counts remesh cost, while a slow stretch of
    the machine moves only the cycles it overlaps."""
    if cycle < 1 or count % cycle:
        raise ValueError(f"window of {count} steps is not whole {cycle}-step "
                         "cycles")
    window_median(step_s, start, count)  # validates the window
    times = [sum(step_s[i:i + cycle])
             for i in range(start, start + count, cycle)]
    return statistics.median(cycle / t for t in times)
