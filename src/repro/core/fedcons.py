"""Algorithm FEDCONS (Figure 2 of the paper).

FEDCONS performs federated scheduling of a constrained-deadline sporadic DAG
task system ``tau`` on ``m`` identical unit-speed preemptive processors:

1. For each **high-density** task (``delta_i >= 1``, in system order),
   MINPROCS computes the smallest dedicated cluster ``m_i`` on which Graham's
   List Scheduling meets ``D_i``, and stores the resulting template schedule
   ``sigma_i``; the cluster is removed from the remaining pool ``m_r``.
   FAILURE if ``m_i > m_r`` for some task.
2. The **low-density** tasks are collapsed to three-parameter sporadic tasks
   and PARTITIONed onto the remaining ``m_r`` processors (deadline-ordered
   first-fit with the ``DBF*`` admission test); each shared processor runs
   preemptive uniprocessor EDF at run time.  FAILURE if any task does not fit.

Theorem 1: if ``tau`` is schedulable by an *optimal* federated scheduler on
``m`` processors of some speed, FEDCONS succeeds on ``m`` processors that are
``3 - 1/m`` times as fast.

The returned :class:`FedConsResult` is a complete deployment description --
which physical processor indices each high-density task owns, its run-time
template, and the shared-pool partition -- and is directly executable by
:mod:`repro.sim`.

:func:`fedcons_accepts` answers the same algorithm on a faster platform
(every WCET divided by the speed) and returns only the verdict; the speed
searches of :mod:`repro.analysis.speedup` call it once per probe.  It
scales only what FEDCONS reads: the volume of every task, and the whole DAG
of a high-density task only (see :func:`_span_within`).
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from repro.errors import AnalysisError, ModelError
from repro.core.minprocs import MinProcsResult, minprocs
from repro.core.partition import (
    AdmissionTest,
    FitStrategy,
    PartitionResult,
    TaskOrder,
    partition_sporadic,
)
from repro.core.schedule import Schedule
from repro.model.dag import VertexId
from repro.model.sporadic import SporadicTask
from repro.model.task import SporadicDAGTask
from repro.model.taskset import TaskSystem
from repro.obs.events import PhaseComplete, Rejection, current_context
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics as _metrics
from repro.obs.spans import span as _span

__all__ = [
    "FailureReason",
    "HighDensityAllocation",
    "FedConsResult",
    "fedcons",
    "fedcons_accepts",
]

_log = get_logger(__name__)


class FailureReason(Enum):
    """Why FEDCONS declared a system unschedulable."""

    STRUCTURALLY_INFEASIBLE = "structurally_infeasible"  # some len_i > D_i
    HIGH_DENSITY_PHASE = "high_density_phase"  # MINPROCS ran out of processors
    PARTITION_PHASE = "partition_phase"  # PARTITION returned FAILURE


@dataclass(frozen=True)
class HighDensityAllocation:
    """A high-density task's exclusive cluster and run-time template."""

    task: SporadicDAGTask
    processors: tuple[int, ...]  # physical processor indices, exclusive
    schedule: Schedule  # template sigma_i (relative to release)
    minprocs_attempts: int

    @property
    def cluster_size(self) -> int:
        """``m_i``: number of processors in the exclusive cluster."""
        return len(self.processors)


@dataclass(frozen=True)
class FedConsResult:
    """Outcome of FEDCONS: a full deployment or a diagnosed failure.

    Attributes
    ----------
    success:
        Whether the whole system was admitted.
    reason:
        On failure, which phase failed (``None`` on success).
    total_processors:
        The platform size ``m`` handed to FEDCONS.
    allocations:
        Per high-density task: its exclusive cluster and template, in the
        order the tasks were processed.  Populated as far as the algorithm
        got even on failure.
    shared_processors:
        Physical indices of the processors left to the shared EDF pool.
    partition:
        The PARTITION outcome over the shared pool (``None`` if the high-
        density phase already failed).
    failed_task:
        The first task that could not be accommodated (``None`` on success).
    """

    success: bool
    total_processors: int
    allocations: tuple[HighDensityAllocation, ...]
    shared_processors: tuple[int, ...]
    partition: PartitionResult | None
    reason: FailureReason | None = None
    failed_task: SporadicDAGTask | None = None

    @property
    def dedicated_processor_count(self) -> int:
        """Processors granted exclusively to high-density tasks."""
        return sum(a.cluster_size for a in self.allocations)

    @property
    def shared_processor_count(self) -> int:
        """Processors left to the shared EDF pool."""
        return len(self.shared_processors)

    def allocation_for(self, task: SporadicDAGTask) -> HighDensityAllocation:
        """The exclusive allocation of a high-density *task*."""
        for alloc in self.allocations:
            if alloc.task == task:
                return alloc
        raise AnalysisError(
            f"task {task.name or task!r} has no dedicated allocation"
        )

    def describe(self) -> str:
        """Human-readable deployment summary."""
        lines = [
            f"FEDCONS on m={self.total_processors}: "
            f"{'ACCEPTED' if self.success else 'REJECTED (' + self.reason.value + ')'}"
        ]
        for alloc in self.allocations:
            name = alloc.task.name or repr(alloc.task)
            lines.append(
                f"  high-density {name}: processors {list(alloc.processors)} "
                f"(makespan {alloc.schedule.makespan:g} <= D "
                f"{alloc.task.deadline:g})"
            )
        if self.partition is not None:
            for k, bucket in enumerate(self.partition.assignment):
                if not bucket:
                    continue
                phys = self.shared_processors[k]
                names = ", ".join(t.name or "?" for t in bucket)
                util = sum(t.utilization for t in bucket)
                lines.append(
                    f"  shared P{phys} (EDF): [{names}] utilization {util:.3f}"
                )
        if self.failed_task is not None:
            lines.append(
                f"  failed on task {self.failed_task.name or self.failed_task!r}"
            )
        return "\n".join(lines)


def fedcons(
    system: TaskSystem | Sequence[SporadicDAGTask],
    processors: int,
    ls_order: str | Sequence[VertexId] = "longest_path",
    partition_order: TaskOrder = TaskOrder.DEADLINE,
    partition_fit: FitStrategy = FitStrategy.FIRST_FIT,
    partition_admission: AdmissionTest = AdmissionTest.DBF_APPROX,
) -> FedConsResult:
    """Run FEDCONS(tau, m).

    Parameters
    ----------
    system:
        A constrained-deadline sporadic DAG task system.
    processors:
        Platform size ``m`` (``>= 1``).
    ls_order:
        Priority order for the List Scheduling templates (Lemma 1 holds for
        any order; the default is the critical-path heuristic).
    partition_order / partition_fit / partition_admission:
        PARTITION-phase knobs; defaults reproduce the paper's Figure 4, the
        alternatives drive the EXP-F ablation.

    Returns
    -------
    FedConsResult
        Accepted deployments carry the per-task templates and the shared-pool
        partition; rejections carry the failing phase and task.

    Raises
    ------
    AnalysisError
        If *processors* < 1.
    repro.errors.ModelError
        If the system is not constrained-deadline (``D_i > T_i`` somewhere);
        FEDCONS's per-dag-job template argument is invalid in that case.
    """
    return _run(
        system, processors, None, ls_order, partition_order, partition_fit,
        partition_admission,
    )


def fedcons_accepts(
    system: TaskSystem | Sequence[SporadicDAGTask],
    processors: int,
    speed: float,
) -> bool:
    """Whether FEDCONS admits *system* on *processors* speed-*speed* processors.

    The verdict of ``fedcons(system.scaled(speed), processors).success``,
    probe for probe, without the scaled system: a low-density task reaches
    PARTITION as ``(vol(s), D, T)`` and only a high-density task is scaled
    into a DAG (MINPROCS schedules it).  Only the verdict is returned: a
    deployment built this way would name unscaled tasks.

    Raises
    ------
    AnalysisError
        If *processors* < 1.
    repro.errors.ModelError
        If *speed* is not positive, a scaled WCET is not positive and finite
        (``DAG.scaled``'s errors, word for word), or some ``D_i > T_i``.
    """
    if speed <= 0:
        raise ModelError(f"speed must be positive, got {speed!r}")
    return _run(
        system, processors, speed, "longest_path", TaskOrder.DEADLINE,
        FitStrategy.FIRST_FIT, AdmissionTest.DBF_APPROX,
    ).success


def _run(
    system: TaskSystem | Sequence[SporadicDAGTask],
    processors: int,
    speed: float | None,
    ls_order: str | Sequence[VertexId],
    partition_order: TaskOrder,
    partition_fit: FitStrategy,
    partition_admission: AdmissionTest,
) -> FedConsResult:
    if processors < 1:
        raise AnalysisError(f"platform must have >= 1 processor, got {processors}")
    if not isinstance(system, TaskSystem):
        system = TaskSystem(system)
    system.validate_constrained()
    with _span("fedcons", tasks=len(system), processors=processors) as sp:
        result = _fedcons(
            system, processors, speed, ls_order, partition_order,
            partition_fit, partition_admission,
        )
        sp.set(
            success=result.success,
            reason=None if result.reason is None else result.reason.value,
        )
        return result


#: ``2 ** -50``: eight units in the last place of 1.0 (see _span_within).
_EIGHT_ULPS = 2.0**-50
#: The largest DAG the rounding bound in _span_within covers.
_SPAN_BOUND_MAX_VERTICES = 2**26


def _span_within(volume: float, vertices: int, deadline: float) -> bool:
    """A proof, without the chain DP, that a scaled DAG's span is <= D.

    ``volume`` is ``vol(s)`` of a DAG of ``vertices`` jobs as ``sum()``
    computes it; True guarantees that the chain DP of the scaled copy
    (``DAG.scaled(s).longest_chain_length``) returns a float ``<= deadline``.
    False proves nothing: the caller runs the DP.

    Let ``q_i`` be the scaled WCETs, ``Q`` their exact sum, ``n`` the vertex
    count and ``u = 2**-53``.  The DP's span is a left-to-right float sum
    along one chain; each addition of non-negative terms rounds up by at
    most a factor ``1 + u`` (a subnormal sum is exact), so
    ``span <= (1 + u)**(n - 1) * Q``.  ``sum()`` adds left to right before
    Python 3.12, so ``vol >= Q / (1 + u)**(n - 1)``; from 3.12 it
    compensates, and for ``n < 2**26`` then ``vol >= Q * (1 - 2u)``.  Either
    way ``span <= vol * (1 + (2n + 2) u)`` up to terms in ``(nu)**2``,
    which are below ``u / 2`` for ``n < 2**26``.  The factor
    ``1 + n * 2**-50 = 1 + 8nu`` is exact for ``n < 2**26``, and the
    rounded product ``vol * (1 + 8nu)`` is at least
    ``vol * (1 + 8nu) / (1 + u)``, which exceeds that bound by at least
    ``3u * vol`` for every ``n >= 1``.  If the product is subnormal, every
    sum involved is exact, so ``span <= Q = vol <= deadline``; if it
    overflows, the test fails.
    """
    return (
        vertices < _SPAN_BOUND_MAX_VERTICES
        and volume * (1.0 + vertices * _EIGHT_ULPS) <= deadline
    )


def _fedcons(
    system: TaskSystem,
    processors: int,
    speed: float | None,
    ls_order: str | Sequence[VertexId],
    partition_order: TaskOrder,
    partition_fit: FitStrategy,
    partition_admission: AdmissionTest,
) -> FedConsResult:
    """FEDCONS on unit-speed processors (``speed`` None) or on a faster
    platform, where each task is seen with its WCETs divided by ``speed``
    (then the result is a verdict only: ``partition.dag_tasks`` and
    ``failed_task`` name the unscaled tasks)."""

    ctx = current_context()
    started = time.perf_counter()
    if _metrics.enabled:
        _metrics.incr("fedcons_invocations")

    def _finish(result: FedConsResult) -> FedConsResult:
        _metrics.record_time("fedcons.total_seconds", time.perf_counter() - started)
        if result.success:
            _log.info(
                "FEDCONS ACCEPTED on m=%d: %d dedicated + %d shared processors",
                processors,
                result.dedicated_processor_count,
                result.shared_processor_count,
            )
        else:
            name = (
                result.failed_task.name or repr(result.failed_task)
                if result.failed_task is not None
                else "?"
            )
            _log.info(
                "FEDCONS REJECTED on m=%d: %s at task %s",
                processors, result.reason.value, name,
            )
        return result

    # One pass over the tasks.  It splits them by density: a high-density
    # task goes to MINPROCS as a DAG task (scaled when a speed is given), a
    # low-density one to PARTITION as (vol_i, D_i, T_i) named as
    # partition() names it.  It also finds the first task whose critical
    # path exceeds its deadline: such a task is infeasible on any platform,
    # which is reported apart from resource exhaustion.  With a speed, every
    # task's vol(s) is computed even past that task, because a scaled WCET
    # that is not representable raises before any verdict, as
    # TaskSystem.scaled would.
    phase_start = time.perf_counter()
    high: list[SporadicDAGTask] = []
    low: list[SporadicTask] = []
    dag_tasks: dict[str, SporadicDAGTask] = {}
    infeasible: SporadicDAGTask | None = None
    for task in system:
        if speed is None:
            view: SporadicDAGTask | None = task
            volume = task.volume
        else:
            view = None
            volume = task.dag.scaled_volume(speed)
        if infeasible is not None:
            continue
        deadline = task.deadline
        if volume / min(deadline, task.period) >= 1.0:  # delta_i >= 1
            if view is None:
                view = task.scaled(speed)
            high.append(view)
        else:
            name = task.name or f"task#{len(low)}"
            low.append(SporadicTask(volume, deadline, task.period, name))
            dag_tasks[name] = task
            if view is None and not _span_within(volume, len(task.dag), deadline):
                view = task.scaled(speed)
        if view is not None and view.span > deadline:
            infeasible = view
    if infeasible is not None:
        if ctx is not None:
            ctx.record(
                Rejection(
                    phase="validate",
                    reason=FailureReason.STRUCTURALLY_INFEASIBLE.value,
                    task=infeasible.name or repr(infeasible),
                    detail={
                        "span": infeasible.span,
                        "deadline": infeasible.deadline,
                        "margin": infeasible.deadline - infeasible.span,
                    },
                )
            )
        return _finish(
            FedConsResult(
                success=False,
                total_processors=processors,
                allocations=(),
                shared_processors=tuple(range(processors)),
                partition=None,
                reason=FailureReason.STRUCTURALLY_INFEASIBLE,
                failed_task=infeasible,
            )
        )
    _log.debug(
        "FEDCONS: %d tasks (%d high-density) on m=%d",
        len(system), len(high), processors,
    )
    if ctx is not None:
        ctx.record(
            PhaseComplete(
                phase="validate",
                ok=True,
                duration=time.perf_counter() - phase_start,
                detail={"tasks": len(system)},
            )
        )

    phase_start = time.perf_counter()
    remaining = processors  # m_r of the pseudo-code
    next_free = 0  # physical processors are granted left-to-right
    allocations: list[HighDensityAllocation] = []
    for task in high:
        result: MinProcsResult | None = minprocs(task, remaining, order=ls_order)
        if result is None:
            name = task.name or repr(task)
            if ctx is not None:
                ctx.record(
                    Rejection(
                        phase="minprocs",
                        reason=FailureReason.HIGH_DENSITY_PHASE.value,
                        task=name,
                        detail={
                            "available": remaining,
                            "density": task.density,
                            "minimum_cluster": max(
                                1, math.ceil(task.density - 1e-12)
                            ),
                            "span": task.span,
                            "deadline": task.deadline,
                        },
                    )
                )
            _log.info(
                "MINPROCS reject: %s needs more than the %d remaining "
                "processors (density %.3f)",
                name, remaining, task.density,
            )
            _metrics.record_time(
                "fedcons.minprocs_seconds", time.perf_counter() - phase_start
            )
            return _finish(
                FedConsResult(
                    success=False,
                    total_processors=processors,
                    allocations=tuple(allocations),
                    shared_processors=tuple(range(next_free, processors)),
                    partition=None,
                    reason=FailureReason.HIGH_DENSITY_PHASE,
                    failed_task=task,
                )
            )
        cluster = tuple(range(next_free, next_free + result.processors))
        allocations.append(
            HighDensityAllocation(
                task=task,
                processors=cluster,
                schedule=result.schedule,
                minprocs_attempts=result.attempts,
            )
        )
        _log.debug(
            "MINPROCS grant: %s gets processors %s (makespan %g <= D %g)",
            task.name or repr(task), list(cluster),
            result.schedule.makespan, task.deadline,
        )
        next_free += result.processors
        remaining -= result.processors
    minprocs_elapsed = time.perf_counter() - phase_start
    _metrics.record_time("fedcons.minprocs_seconds", minprocs_elapsed)
    if ctx is not None:
        ctx.record(
            PhaseComplete(
                phase="minprocs",
                ok=True,
                duration=minprocs_elapsed,
                detail={
                    "clusters": {
                        a.task.name or repr(a.task): a.cluster_size
                        for a in allocations
                    },
                    "dedicated": next_free,
                    "remaining": remaining,
                },
            )
        )
    _log.info(
        "FEDCONS minprocs phase done: %d high-density tasks on %d "
        "dedicated processors, %d remaining",
        len(allocations), next_free, remaining,
    )

    phase_start = time.perf_counter()
    shared = tuple(range(next_free, processors))
    with _span(
        "fedcons.partition", tasks=len(low), processors=remaining
    ) as part_span:
        placed = partition_sporadic(
            low,
            remaining,
            order=partition_order,
            fit=partition_fit,
            admission=partition_admission,
        )
        part_span.set(success=placed.success)
    part = PartitionResult(
        success=placed.success,
        assignment=placed.assignment,
        processors=placed.processors,
        failed_task=placed.failed_task,
        dag_tasks=dag_tasks,
    )
    partition_elapsed = time.perf_counter() - phase_start
    _metrics.record_time("fedcons.partition_seconds", partition_elapsed)
    if ctx is not None:
        ctx.record(
            PhaseComplete(
                phase="partition",
                ok=part.success,
                duration=partition_elapsed,
                detail={
                    "tasks": len(low),
                    "processors": remaining,
                    "used_processors": part.used_processors,
                },
            )
        )
    _log.info(
        "FEDCONS partition phase done: %d low-density tasks on %d shared "
        "processors -> %s",
        len(low), remaining, "placed" if part.success else "FAILURE",
    )
    if not part.success:
        failed_dag = None
        if part.failed_task is not None:
            failed_dag = part.dag_tasks.get(part.failed_task.name)
        return _finish(
            FedConsResult(
                success=False,
                total_processors=processors,
                allocations=tuple(allocations),
                shared_processors=shared,
                partition=part,
                reason=FailureReason.PARTITION_PHASE,
                failed_task=failed_dag,
            )
        )
    return _finish(
        FedConsResult(
            success=True,
            total_processors=processors,
            allocations=tuple(allocations),
            shared_processors=shared,
            partition=part,
        )
    )
