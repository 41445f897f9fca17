"""Speedup-bound machinery: Example 2, Theorem 1, and empirical speedups.

The paper argues (Example 2) that *capacity augmentation bounds* are
meaningless beyond implicit deadlines -- a system with ``U_sum <= 1`` and
``len_i <= D_i`` may still need unbounded speed -- and therefore quantifies
FEDCONS with a *speedup bound* (Definition 1), proving ``3 - 1/m``
(Theorem 1).  This module provides:

* :func:`example2_system` -- the paper's witness family, and
  :func:`example2_required_speed` -- its exactly-computed speed requirement,
  which grows without bound while capacity-augmentation's premises hold;
* :func:`minimum_fedcons_speed` -- the empirical minimum platform speed at
  which FEDCONS admits a given system (binary search; FEDCONS is
  speed-monotone for uniform WCET scaling because LS schedules scale
  linearly and the DBF*/rate admission conditions relax monotonically),
  and :func:`minimum_accepting_speed`, the same search for any test that
  reads a scaled system;
* :func:`empirical_speedup_factor` -- the ratio of that speed to the
  necessary-feasibility speed bound, an instance-wise upper bound on
  FEDCONS's true speedup factor.  Theorem 1 guarantees the *true* factor is
  at most ``3 - 1/m``; the experiments show the measured ratios sit far
  below it.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.errors import AnalysisError
from repro.analysis.feasibility import necessary_speed_bound
from repro.core.fedcons import fedcons_accepts
from repro.model.dag import DAG
from repro.model.task import SporadicDAGTask
from repro.model.taskset import TaskSystem

__all__ = [
    "theorem1_bound",
    "example2_system",
    "example2_required_speed",
    "minimum_accepting_speed",
    "minimum_fedcons_speed",
    "empirical_speedup_factor",
]


def _least_speed(
    ok: Callable[[float], bool], tolerance: float, max_speed: float
) -> float:
    """The smallest speed *ok* accepts, to *tolerance*.

    If speed 1 passes, bisect ``[0, 1]`` down to an absolute width of
    *tolerance*; otherwise gallop ``2, 4, 8, ...`` up to *max_speed*
    (``math.inf`` if none passes) and bisect the last doubling down to a
    relative width of *tolerance*.  Returns the upper end of the final
    bracket, a speed *ok* accepted.
    """
    if ok(1.0):
        low, high = 0.0, 1.0
        while high - low > tolerance:
            mid = 0.5 * (low + high)
            if mid <= 0:
                break
            if ok(mid):
                high = mid
            else:
                low = mid
        return high
    low, high = 1.0, 2.0
    while high <= max_speed and not ok(high):
        low = high
        high *= 2.0
    if high > max_speed:
        return math.inf
    while high - low > tolerance * high:
        mid = 0.5 * (low + high)
        if ok(mid):
            high = mid
        else:
            low = mid
    return high


def minimum_accepting_speed(
    accepts,
    system: TaskSystem,
    tolerance: float = 1e-3,
    max_speed: float = 1024.0,
) -> float:
    """Minimum platform speed at which ``accepts(system.scaled(s))`` is True.

    Generic binary search for any schedulability decision that is monotone
    under uniform WCET scaling (all the tests in this package are).  Returns
    ``math.inf`` when even *max_speed* is rejected.  The *breakdown
    utilization* of a decision on a system is ``U_sum / (s_min * m)`` -- the
    effective normalized load at which the decision flips.
    """
    return _least_speed(
        lambda speed: bool(accepts(system.scaled(speed))), tolerance, max_speed
    )


def theorem1_bound(processors: int) -> float:
    """The Theorem 1 speedup bound ``3 - 1/m`` of FEDCONS on *processors*."""
    if processors < 1:
        raise AnalysisError(f"processor count must be >= 1, got {processors}")
    return 3.0 - 1.0 / processors


def example2_system(n: int) -> TaskSystem:
    """The paper's Example 2 witness: ``n`` tasks, each one unit job,
    ``D_i = 1``, ``T_i = n``.

    The system has ``U_sum = n * (1/n) = 1`` and ``len_i = 1 <= D_i``, so any
    capacity-augmentation argument says one (suitably sped-up) processor
    should do -- yet all ``n`` unit jobs can be released simultaneously and
    each must finish within one time unit, forcing speed ``n`` on a single
    processor.  Hence no finite capacity augmentation bound exists for
    constrained-deadline systems.
    """
    if n < 1:
        raise AnalysisError(f"Example 2 needs n >= 1, got {n}")
    return TaskSystem(
        SporadicDAGTask(
            dag=DAG.single_vertex(1.0),
            deadline=1.0,
            period=float(n),
            name=f"ex2_{i}",
        )
        for i in range(n)
    )


def example2_required_speed(n: int, processors: int = 1) -> float:
    """Exact minimum speed to schedule Example 2's system on *processors*.

    All ``n`` jobs may be released together; each is sequential with a unit
    WCET and a unit window.  A speed-``s`` processor finishes ``floor(s)``
    whole unit jobs within the window (jobs cannot run in parallel with
    themselves), so ``m`` processors handle ``m * floor(s)`` jobs... except
    that a job *may* be preempted and resumed on the same processor, letting
    a processor interleave up to ``s`` jobs' worth of work as long as each
    job individually gets one unit of work within the unit window -- which is
    achievable for any ``s`` jobs per processor by round-robin.  The binding
    constraint is therefore pure capacity: ``m * s >= n``, i.e.
    ``s = n / m``, together with ``s >= 1`` so a single job fits its window.
    """
    if n < 1 or processors < 1:
        raise AnalysisError("n and processors must be >= 1")
    return max(1.0, n / processors)


def minimum_fedcons_speed(
    system: TaskSystem,
    processors: int,
    tolerance: float = 1e-3,
    max_speed: float = 1024.0,
) -> float:
    """Minimum platform speed at which FEDCONS admits *system*.

    Binary search over the speed ``s`` (all WCETs scaled by ``1/s``).  If the
    system is rejected even at *max_speed*, ``math.inf`` is returned (this
    happens iff some ``vol_i`` is so large that even a very fast platform
    cannot host it, or the platform simply has too few processors for the
    task count in the partition phase).

    Each probe is :func:`~repro.core.fedcons.fedcons_accepts`, so the answer
    equals ``minimum_accepting_speed(lambda t: fedcons(t, processors).success,
    system)`` bit for bit while scaling only the high-density tasks' DAGs.
    """
    if processors < 1:
        raise AnalysisError(f"processor count must be >= 1, got {processors}")
    return _least_speed(
        lambda speed: fedcons_accepts(system, processors, speed),
        tolerance,
        max_speed,
    )


def empirical_speedup_factor(
    system: TaskSystem,
    processors: int,
    tolerance: float = 1e-3,
) -> float:
    """``s_FEDCONS / s_necessary`` for one instance.

    The denominator is the necessary-feasibility speed (no scheduler can do
    with less); the numerator is FEDCONS's measured minimum speed.  The ratio
    upper-bounds FEDCONS's true speedup factor on this instance, and by
    Theorem 1 the true factor never exceeds ``3 - 1/m``.  (Because the
    denominator is only a *lower* bound on the optimal scheduler's speed, a
    measured ratio slightly above the theorem's bound would not contradict
    it; in practice measured ratios are far below.)
    """
    s_fed = minimum_fedcons_speed(system, processors, tolerance=tolerance)
    s_needed = necessary_speed_bound(system, processors)
    if s_needed <= 0:
        raise AnalysisError("degenerate system with zero necessary speed")
    return s_fed / s_needed
