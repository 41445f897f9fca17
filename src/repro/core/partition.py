"""Procedure PARTITION (Figure 4 of the paper).

PARTITION places the low-density tasks -- each collapsed to a three-parameter
sporadic task ``(vol_i, D_i, T_i)`` -- onto the ``m_r`` shared processors.
Following Baruah & Fisher (IEEE TC 2006), tasks are considered in
non-decreasing deadline order and assigned first-fit; task ``tau_i`` fits on
processor ``k`` if the ``DBF*``-approximated demand already on ``k`` leaves
room for ``tau_i``'s volume by its deadline::

    D_i - sum_{tau_j in tau(k)} DBF*(tau_j, D_i)  >=  vol_i        (demand)

and the processor's long-run rate is not overcommitted::

    1 - sum_{tau_j in tau(k)} u_j  >=  u_i                         (rate)

(The paper's Figure 4 shows the demand condition; the rate condition is part
of the underlying Baruah-Fisher algorithm [7] whose Corollary 1 the paper's
Lemma 2 cites, and is what makes the deadline-ordered check at the single
point ``t = D_i`` sound for all later instants.)

Each shared processor then runs preemptive uniprocessor EDF at run time.

For the ablation experiment (EXP-F) the module also exposes alternative fit
strategies, orderings and admission tests; :func:`partition` with default
arguments is exactly the paper's algorithm.

The ``DBF*`` admission probes are answered by per-processor
:class:`~repro.core.shard.ShardState` ledgers; with the compiled kernels
enabled (:mod:`repro.core.kernels`, the default)
:meth:`PartitionResult.verify` with ``exact=True`` uses the QPA oracle --
bit-identical to the breakpoint-scan reference path.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import AnalysisError
from repro.core import dbf as dbf_mod
from repro.core.shard import ShardState
from repro.model.sporadic import SporadicTask
from repro.model.task import SporadicDAGTask
from repro.obs.events import PartitionAttempt, Rejection, current_context
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics as _metrics

_log = get_logger(__name__)

__all__ = [
    "FitStrategy",
    "TaskOrder",
    "AdmissionTest",
    "PartitionResult",
    "partition",
    "partition_sporadic",
]

_TOL = 1e-9


class FitStrategy(Enum):
    """How to pick among processors that can accept a task."""

    FIRST_FIT = "first_fit"
    BEST_FIT = "best_fit"  # least remaining demand slack after placement
    WORST_FIT = "worst_fit"  # most remaining demand slack after placement


class TaskOrder(Enum):
    """The order in which tasks are considered for placement."""

    DEADLINE = "deadline"  # non-decreasing D_i -- the paper's order
    DENSITY = "density"  # non-increasing density
    UTILIZATION = "utilization"  # non-increasing utilization
    GIVEN = "given"  # input order, unmodified


class AdmissionTest(Enum):
    """The per-processor schedulability condition used during placement."""

    DBF_APPROX = "dbf_approx"  # the paper's DBF* + rate conditions
    DBF_APPROX_ALL_POINTS = "dbf_approx_all_points"  # DBF* at every affected
    # test point: order-independently sound (the online controller's probe)
    DBF_EXACT = "dbf_exact"  # exact processor-demand criterion (slow)
    DENSITY = "density"  # total density <= 1 (crudest)


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of a partitioning attempt.

    Attributes
    ----------
    success:
        Whether every task was placed.
    assignment:
        ``assignment[k]`` is the tuple of tasks placed on shared processor
        ``k`` (indices ``0 .. processors-1``), in placement order.
    failed_task:
        The first task that could not be placed (``None`` on success).
    processors:
        Number of shared processors offered.
    """

    success: bool
    assignment: tuple[tuple[SporadicTask, ...], ...]
    processors: int
    failed_task: SporadicTask | None = None
    dag_tasks: dict[str, SporadicDAGTask] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def used_processors(self) -> int:
        """Number of shared processors with at least one task."""
        return sum(1 for bucket in self.assignment if bucket)

    def processor_of(self, task: SporadicTask) -> int:
        """Index of the processor holding *task*."""
        for k, bucket in enumerate(self.assignment):
            if task in bucket:
                return k
        raise AnalysisError(f"task {task.name or task!r} is not in this partition")

    def verify(self, exact: bool = False) -> bool:
        """Re-check schedulability of every processor's bucket.

        With ``exact=True`` uses the pseudo-polynomial processor-demand
        criterion (QPA-accelerated when the compiled kernels are on);
        otherwise the ``DBF*`` test.  Since ``DBF*`` dominates ``dbf``,
        approximate acceptance implies exact schedulability.
        """
        test = dbf_mod.edf_exact_test if exact else dbf_mod.edf_approx_test
        return all(test(list(bucket)) for bucket in self.assignment)


def _fits_exact(bucket: list[SporadicTask], task: SporadicTask) -> bool:
    return dbf_mod.edf_exact_test(bucket + [task])


def _fits_density(bucket: list[SporadicTask], task: SporadicTask) -> bool:
    return sum(t.density for t in bucket) + task.density <= 1.0 + _TOL


_LIST_FIT_TESTS = {
    AdmissionTest.DBF_EXACT: _fits_exact,
    AdmissionTest.DENSITY: _fits_density,
}

#: Admission tests answered by the incremental per-processor demand ledgers.
_SHARD_FIT_TESTS = (AdmissionTest.DBF_APPROX, AdmissionTest.DBF_APPROX_ALL_POINTS)


def _slack_after(bucket: list[SporadicTask], task: SporadicTask) -> float:
    """Remaining rate headroom if *task* joins *bucket* (for best/worst fit)."""
    return 1.0 - sum(t.utilization for t in bucket) - task.utilization


def _rejection_detail(
    buckets: list[list[SporadicTask]], task: SporadicTask
) -> dict:
    """Quantify the violated placement bound for every shared processor.

    For each processor: the DBF*-demand slack ``D_i - demand(D_i) - C_i``
    and the rate slack ``1 - U(k) - u_i`` (Figure 4's two conditions); the
    task fits where both are non-negative, so on rejection every processor
    shows at least one negative slack.
    """
    per_processor = []
    for k, bucket in enumerate(buckets):
        demand = dbf_mod.total_dbf_approx(bucket, task.deadline)
        per_processor.append(
            {
                "processor": k,
                "demand_slack": task.deadline - demand - task.wcet,
                "rate_slack": 1.0 - sum(t.utilization for t in bucket)
                - task.utilization,
            }
        )
    return {
        "deadline": task.deadline,
        "wcet": task.wcet,
        "utilization": task.utilization,
        "best_demand_slack": max(
            (p["demand_slack"] for p in per_processor), default=None
        ),
        "best_rate_slack": max(
            (p["rate_slack"] for p in per_processor), default=None
        ),
        "per_processor": per_processor,
    }


def _sorted_tasks(
    tasks: Sequence[SporadicTask], order: TaskOrder
) -> list[SporadicTask]:
    indexed = list(enumerate(tasks))
    if order is TaskOrder.DEADLINE:
        indexed.sort(key=lambda pair: (pair[1].deadline, pair[0]))
    elif order is TaskOrder.DENSITY:
        indexed.sort(key=lambda pair: (-pair[1].density, pair[0]))
    elif order is TaskOrder.UTILIZATION:
        indexed.sort(key=lambda pair: (-pair[1].utilization, pair[0]))
    return [task for _, task in indexed]


def partition_sporadic(
    tasks: Sequence[SporadicTask],
    processors: int,
    order: TaskOrder = TaskOrder.DEADLINE,
    fit: FitStrategy = FitStrategy.FIRST_FIT,
    admission: AdmissionTest = AdmissionTest.DBF_APPROX,
) -> PartitionResult:
    """Partition three-parameter sporadic tasks onto *processors* EDF processors.

    With default arguments this is exactly PARTITION of the paper's Figure 4
    (deadline-ordered first-fit with the ``DBF*`` admission test); the other
    enum values drive the EXP-F ablation.

    The function never raises on an unplaceable task -- it returns a
    :class:`PartitionResult` with ``success=False`` and the offending task,
    mirroring the pseudo-code's ``return FAILURE``.
    """
    if processors < 0:
        raise AnalysisError(f"processor count must be >= 0, got {processors}")
    ctx = current_context()
    # First-fit needs only the first fitting processor.  The full scan stays
    # where the candidate count is read: best/worst fit, a decision trace
    # (PartitionAttempt.candidates) and the DEBUG "n/m candidates" line.
    full_scan = (
        fit is not FitStrategy.FIRST_FIT
        or ctx is not None
        or _log.isEnabledFor(logging.DEBUG)
    )
    buckets: list[list[SporadicTask]] = [[] for _ in range(processors)]
    # The DBF*-based tests are answered by incremental per-processor demand
    # ledgers (O(log bucket) per probe) instead of re-scanning every bucket.
    if admission in _SHARD_FIT_TESTS:
        shards = [ShardState() for _ in range(processors)]
        if admission is AdmissionTest.DBF_APPROX:
            def fits(k: int, task: SporadicTask) -> bool:
                return shards[k].fits_at_deadline(task)
        else:
            def fits(k: int, task: SporadicTask) -> bool:
                return shards[k].fits_all_points(task)
    else:
        shards = None
        list_fits = _LIST_FIT_TESTS[admission]

        def fits(k: int, task: SporadicTask) -> bool:
            return list_fits(buckets[k], task)

    for rank, task in enumerate(_sorted_tasks(tasks, order)):
        if _metrics.enabled:
            _metrics.incr("partition_placement_attempts")
        if full_scan:
            candidates = [k for k in range(processors) if fits(k, task)]
        else:
            candidates = next(
                ([k] for k in range(processors) if fits(k, task)), []
            )
        if not candidates:
            name = task.name or repr(task)
            if ctx is not None:
                ctx.record(
                    PartitionAttempt(
                        task=name,
                        deadline=task.deadline,
                        wcet=task.wcet,
                        utilization=task.utilization,
                        processor=None,
                        candidates=0,
                        admitted=False,
                    )
                )
                ctx.record(
                    Rejection(
                        phase="partition",
                        reason="no_processor_fits",
                        task=name,
                        detail=_rejection_detail(buckets, task),
                    )
                )
            _log.info(
                "PARTITION reject: %s (D=%g, C=%g, u=%.3f) fits none of %d "
                "shared processors",
                name, task.deadline, task.wcet, task.utilization, processors,
            )
            return PartitionResult(
                success=False,
                assignment=tuple(tuple(b) for b in buckets),
                processors=processors,
                failed_task=task,
            )
        if fit is FitStrategy.FIRST_FIT:
            chosen = candidates[0]
        elif fit is FitStrategy.BEST_FIT:
            chosen = min(candidates, key=lambda k: _slack_after(buckets[k], task))
        else:  # WORST_FIT
            chosen = max(candidates, key=lambda k: _slack_after(buckets[k], task))
        if ctx is not None:
            ctx.record(
                PartitionAttempt(
                    task=task.name or repr(task),
                    deadline=task.deadline,
                    wcet=task.wcet,
                    utilization=task.utilization,
                    processor=chosen,
                    candidates=len(candidates),
                    admitted=True,
                )
            )
        _log.debug(
            "PARTITION fit: %s -> shared P%d (%d/%d candidates)",
            task.name or repr(task), chosen, len(candidates), processors,
        )
        buckets[chosen].append(task)
        if shards is not None:
            shards[chosen].add(task, rank)
    return PartitionResult(
        success=True,
        assignment=tuple(tuple(b) for b in buckets),
        processors=processors,
    )


def partition(
    tasks: Sequence[SporadicDAGTask],
    processors: int,
    order: TaskOrder = TaskOrder.DEADLINE,
    fit: FitStrategy = FitStrategy.FIRST_FIT,
    admission: AdmissionTest = AdmissionTest.DBF_APPROX,
) -> PartitionResult:
    """PARTITION(tau_low, m_r): place low-density sporadic DAG tasks.

    Each DAG task is first collapsed to its three-parameter equivalent
    ``(vol_i, D_i, T_i)`` (a task confined to one processor cannot exploit
    internal parallelism -- Section IV-B), then placed with
    :func:`partition_sporadic`.  The result's ``dag_tasks`` maps sporadic
    task names back to the originating DAG tasks.

    Raises
    ------
    AnalysisError
        If any input task is high-density (``delta_i >= 1``): such a task can
        never share a processor and belongs in the MINPROCS phase.
    """
    for i, task in enumerate(tasks):
        if task.is_high_density:
            raise AnalysisError(
                f"PARTITION received high-density task "
                f"{task.name or f'#{i}'} (density {task.density:.3f} >= 1)"
            )
    named = []
    back: dict[str, SporadicDAGTask] = {}
    for i, task in enumerate(tasks):
        sporadic = task.to_sporadic()
        if not sporadic.name:
            sporadic = SporadicTask(
                wcet=sporadic.wcet,
                deadline=sporadic.deadline,
                period=sporadic.period,
                name=f"task#{i}",
            )
        named.append(sporadic)
        back[sporadic.name] = task
    result = partition_sporadic(
        named, processors, order=order, fit=fit, admission=admission
    )
    return PartitionResult(
        success=result.success,
        assignment=result.assignment,
        processors=result.processors,
        failed_task=result.failed_task,
        dag_tasks=back,
    )
