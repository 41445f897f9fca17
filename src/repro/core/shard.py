"""Incremental per-processor ``DBF*`` demand state (:class:`ShardState`).

Both PARTITION (batch) and the online admission controller repeatedly ask the
same question of a shared EDF processor: *if this sporadic task joined the
bucket, would the processor still pass the ``DBF*`` demand test?*  The naive
answer re-evaluates ``sum_j DBF*(tau_j, t)`` over the whole bucket for every
probe -- ``O(bucket)`` per candidate processor, ``O(n^2)`` per partitioning
pass.

A :class:`ShardState` is one shared processor's demand ledger.  It keeps the
bucket's tasks sorted by ``(deadline, rank)`` together with prefix sums of
``C_j``, ``u_j`` and ``u_j * D_j``.  Because every ``DBF*`` term is
``C_j + u_j * (t - D_j)`` once ``t >= D_j`` and zero before, the aggregate
demand at any instant ``t`` is::

    DBF*(shard, t) = S_C(t) + t * S_u(t) - S_uD(t)

where the three sums range over tasks with ``D_j <= t`` -- a single bisect
plus three array reads, ``O(log bucket)`` per probe.

Two admission probes are offered:

``fits_at_deadline``
    the paper's Figure 4 condition checked at the single point ``t = D_i``
    plus the Baruah-Fisher rate condition.  Sound **only** when tasks are
    placed in non-decreasing deadline order (the batch PARTITION default).
``fits_all_points``
    the same two conditions *plus* a re-check of every existing test point at
    or after the newcomer's deadline.  A task with an early deadline adds
    demand at every later test point, so this is the order-independently
    sound variant the online controller (and the ``GIVEN``-order batch
    oracle) uses.  Cost: ``O(affected test points)``.

The prefix arrays are rebuilt left-to-right from the sorted entry list on
every mutation, so every derived float is a pure function of the shard's
*contents* -- independent of the add/remove history.  That is what lets the
online controller's incrementally-maintained shards compare bit-for-bit
against shards freshly built by a from-scratch batch re-analysis.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable

from repro.errors import AnalysisError
from repro.model.sporadic import SporadicTask

__all__ = ["ShardState"]

_TOL = 1e-9


class ShardState:
    """The incremental ``DBF*`` demand ledger of one shared EDF processor.

    Entries are ``(deadline, rank, task)`` triples kept sorted by
    ``(deadline, rank)``; *rank* is any caller-supplied integer whose relative
    order among equal deadlines is canonical (batch PARTITION uses the
    placement index, the online controller its admission sequence number), so
    two shards with the same task contents always hold them -- and sum their
    demand -- in the same order.
    """

    __slots__ = (
        "_entries",
        "_deadlines",
        "_cum_wcet",
        "_cum_util",
        "_cum_util_deadline",
    )

    def __init__(
        self, entries: Iterable[tuple[SporadicTask, int]] = ()
    ) -> None:
        self._entries: list[tuple[float, int, SporadicTask]] = sorted(
            (task.deadline, rank, task) for task, rank in entries
        )
        self._rebuild()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Recompute the prefix-sum arrays from the sorted entry list."""
        self._deadlines = [d for d, _, _ in self._entries]
        cum_wcet: list[float] = []
        cum_util: list[float] = []
        cum_util_deadline: list[float] = []
        wcet_sum = util_sum = util_deadline_sum = 0.0
        for deadline, _, task in self._entries:
            wcet_sum += task.wcet
            util_sum += task.utilization
            util_deadline_sum += task.utilization * deadline
            cum_wcet.append(wcet_sum)
            cum_util.append(util_sum)
            cum_util_deadline.append(util_deadline_sum)
        self._cum_wcet = cum_wcet
        self._cum_util = cum_util
        self._cum_util_deadline = cum_util_deadline

    def add(self, task: SporadicTask, rank: int) -> None:
        """Insert *task* with the canonical tie-break *rank*."""
        insort(self._entries, (task.deadline, rank, task))
        self._rebuild()

    def remove(self, name: str) -> SporadicTask:
        """Remove (and return) the task called *name*.

        Raises
        ------
        AnalysisError
            If no task with that name is on this shard.
        """
        for i, (_, _, task) in enumerate(self._entries):
            if task.name == name:
                del self._entries[i]
                self._rebuild()
                return task
        raise AnalysisError(f"no task named {name!r} on this shard")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def tasks(self) -> tuple[SporadicTask, ...]:
        """The shard's tasks in canonical ``(deadline, rank)`` order."""
        return tuple(task for _, _, task in self._entries)

    @property
    def entries(self) -> tuple[tuple[SporadicTask, int], ...]:
        """``(task, rank)`` pairs in canonical order -- enough to rebuild an
        identical shard with ``ShardState(shard.entries)`` (used by the
        controller's lossless snapshot/restore path)."""
        return tuple((task, rank) for _, rank, task in self._entries)

    def state_vector(self) -> tuple[tuple[float, ...], ...]:
        """The derived float arrays, for bit-exactness assertions.

        Two shards holding the same ``(deadline, rank, C, u)`` contents have
        identical state vectors *regardless of mutation history* -- the
        invariant that makes checkpoint restore (a fresh left-to-right
        rebuild) float-equal to the incrementally maintained original.
        """
        return (
            tuple(self._deadlines),
            tuple(self._cum_wcet),
            tuple(self._cum_util),
            tuple(self._cum_util_deadline),
        )

    @property
    def utilization(self) -> float:
        """Total long-run rate ``sum_j u_j`` of the shard."""
        return self._cum_util[-1] if self._cum_util else 0.0

    def demand(self, t: float) -> float:
        """Aggregate ``sum_j DBF*(tau_j, t)`` of the shard's tasks."""
        p = bisect_right(self._deadlines, t)
        if p == 0:
            return 0.0
        return (
            self._cum_wcet[p - 1]
            + self._cum_util[p - 1] * t
            - self._cum_util_deadline[p - 1]
        )

    # ------------------------------------------------------------------
    # admission probes
    # ------------------------------------------------------------------
    def fits_at_deadline(self, task: SporadicTask) -> bool:
        """Figure 4's demand condition at ``t = D_i`` plus the rate condition.

        Decision-equivalent to the historical ``_fits_demand`` bucket scan;
        sound only under non-decreasing-deadline placement order.
        """
        demand = self.demand(task.deadline)
        if task.deadline - demand < task.wcet - _TOL:
            return False
        return 1.0 - self.utilization >= task.utilization - _TOL

    def fits_all_points(self, task: SporadicTask) -> bool:
        """Order-independently sound ``DBF*`` admission probe.

        Beyond :meth:`fits_at_deadline`, re-checks every existing test point
        at or after the newcomer's deadline -- the only points where the
        newcomer adds demand (``DBF*(tau_new, t) = 0`` for ``t < D_new``, and
        points strictly before ``D_new`` were verified when their tasks were
        placed).

        One pass over the prefix arrays computes, per test point ``t``, the
        float expression ``demand(t) + dbf_approx(t)`` with :meth:`demand`'s
        operand order.
        """
        if not self.fits_at_deadline(task):
            return False
        lo = bisect_left(self._deadlines, task.deadline)
        deadlines = self._deadlines
        cum_wcet = self._cum_wcet
        cum_util = self._cum_util
        cum_util_deadline = self._cum_util_deadline
        wcet, util, deadline = task.wcet, task.utilization, task.deadline
        last = len(deadlines) - 1
        for j in range(lo, last + 1):
            t = deadlines[j]
            # A duplicated deadline is one test point, read at the last index
            # of its group -- where demand()'s bisect_right lands.
            if j < last and deadlines[j + 1] == t:
                continue
            if (
                cum_wcet[j] + cum_util[j] * t - cum_util_deadline[j]
                + (wcet + util * (t - deadline))
                > t + _TOL
            ):
                return False
        return True

