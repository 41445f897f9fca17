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
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.model.sporadic import SporadicTask

__all__ = ["ShardState", "ShardProbeMatrix"]

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
        "_arrays",
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
        # Lazily-built numpy mirrors of the prefix arrays (ShardProbeMatrix).
        self._arrays: tuple[np.ndarray, ...] | None = None

    def _numpy_arrays(self) -> tuple[np.ndarray, ...]:
        """Numpy mirrors of ``(deadlines, cum_wcet, cum_util, cum_util_deadline)``.

        Built on the first :class:`ShardProbeMatrix` fill after a mutation;
        the floats are the same Python floats :meth:`fits_all_points` reads,
        so the matrix computes bit-identical demands.
        """
        arrays = self._arrays
        if arrays is None:
            arrays = (
                np.asarray(self._deadlines),
                np.asarray(self._cum_wcet),
                np.asarray(self._cum_util),
                np.asarray(self._cum_util_deadline),
            )
            self._arrays = arrays
        return arrays

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


class ShardProbeMatrix:
    """Batched ``fits_all_points`` probes over *many* shards at once.

    The scalar path answers "does this task fit shard ``k``?" one shard at a
    time -- a bisect plus an O(affected points) scan per shard.  This class
    packs every shard's ledger into one padded ``(shards, points)`` matrix so
    a candidate (or a whole batch of candidates) is probed against *all*
    shards in a single NumPy broadcast.

    Bit-identity: each cell evaluates exactly the float expressions of
    :meth:`ShardState.fits_at_deadline` and the per-point scan of
    :meth:`ShardState.fits_all_points` -- same operand order, same
    ``_TOL`` comparisons -- so ``probe(task)[k] ==
    shards[k].fits_all_points(task)`` for every shard, and first-fit
    placement (take the lowest ``True`` index) is unchanged.

    The per-point *base* demand (the shard's own aggregate ``DBF*`` at each
    of its test points) is candidate-independent, so it is precomputed once
    per build/refresh; a probe only adds the candidate term
    ``C + u * (t - D)`` and compares.  Rows carry headroom so the admission
    hot path can :meth:`refresh_column` in place after an accept instead of
    rebuilding the whole matrix; the owner rebuilds when a refresh reports
    the row outgrew its padding or the shard list itself changed shape.
    """

    __slots__ = (
        "_capacity",
        "_points",
        "_valid",
        "_base",
        "_cum_wcet",
        "_cum_util",
        "_cum_util_deadline",
        "_util_total",
        "_cols",
    )

    def __init__(self, shards: Sequence[ShardState]) -> None:
        longest = max((len(s) for s in shards), default=0)
        # Headroom: admissions grow one row at a time, so a few spare slots
        # per row amortize full rebuilds across a batch of accepts.
        self._capacity = longest + max(8, longest // 4)
        rows, cols = len(shards), self._capacity
        self._points = np.zeros((rows, cols))
        self._valid = np.zeros((rows, cols), dtype=bool)
        self._base = np.zeros((rows, cols))
        self._cum_wcet = np.zeros((rows, cols))
        self._cum_util = np.zeros((rows, cols))
        self._cum_util_deadline = np.zeros((rows, cols))
        self._util_total = np.zeros(rows)
        self._cols = np.arange(rows)
        for r, shard in enumerate(shards):
            self._fill_row(r, shard)

    @property
    def shard_count(self) -> int:
        return self._points.shape[0]

    def _fill_row(self, r: int, shard: ShardState) -> None:
        n = len(shard._deadlines)
        self._valid[r, :] = False
        self._points[r, :] = 0.0
        self._base[r, :] = 0.0
        self._cum_wcet[r, :] = 0.0
        self._cum_util[r, :] = 0.0
        self._cum_util_deadline[r, :] = 0.0
        self._util_total[r] = shard.utilization
        if n == 0:
            return
        deadlines, cum_wcet, cum_util, cum_util_deadline = shard._numpy_arrays()
        self._valid[r, :n] = True
        self._points[r, :n] = deadlines
        self._cum_wcet[r, :n] = cum_wcet
        self._cum_util[r, :n] = cum_util
        self._cum_util_deadline[r, :n] = cum_util_deadline
        # Demand at a point reads the prefix sums at the *last* entry of the
        # point's duplicate group (bisect_right semantics).
        last = np.searchsorted(deadlines, deadlines, side="right") - 1
        self._base[r, :n] = (
            cum_wcet[last] + cum_util[last] * deadlines - cum_util_deadline[last]
        )

    def refresh_column(self, k: int, shard: ShardState) -> bool:
        """Re-mirror shard *k* after a mutation; ``False`` if it outgrew the
        row padding (the caller must rebuild the matrix)."""
        if len(shard) > self._capacity:
            return False
        self._fill_row(k, shard)
        return True

    def probe(self, task: SporadicTask) -> np.ndarray:
        """Per-shard ``fits_all_points`` verdicts for one candidate."""
        return self._probe_block((task,), slice(None))[0]

    def probe_many(self, tasks: Sequence[SporadicTask]) -> np.ndarray:
        """``(candidates, shards)`` verdict matrix in one broadcast."""
        return self._probe_block(tasks, slice(None))

    def probe_column(self, tasks: Sequence[SporadicTask], k: int) -> np.ndarray:
        """Per-candidate verdicts against the single shard *k*."""
        return self._probe_block(tasks, slice(k, k + 1))[:, 0]

    def _probe_block(
        self, tasks: Sequence[SporadicTask], sl: slice
    ) -> np.ndarray:
        points = self._points[sl]
        valid = self._valid[sl]
        deadline = np.array([t.deadline for t in tasks])[:, None]
        wcet = np.array([t.wcet for t in tasks])[:, None]
        util = np.array([t.utilization for t in tasks])[:, None]
        deadline3 = deadline[:, :, None]
        # fits_at_deadline, batched: per-shard demand at t = D via the
        # bisect_right prefix index (count of entries with deadline <= D).
        at_or_before = valid & (points <= deadline3)
        count = at_or_before.sum(axis=2)
        gather = np.maximum(count - 1, 0)
        rows = self._cols[sl][None, :]
        demand_at = (
            self._cum_wcet[rows, gather]
            + self._cum_util[rows, gather] * deadline
            - self._cum_util_deadline[rows, gather]
        )
        demand_at = np.where(count > 0, demand_at, 0.0)
        fits = deadline - demand_at >= wcet - _TOL
        fits &= 1.0 - self._util_total[sl][None, :] >= util - _TOL
        # fits_all_points, batched: candidate demand added at every existing
        # test point at or after its deadline (same grouping as the scalar
        # scan: base + (C + u * (t - D))).
        with_task = self._base[sl] + (
            wcet[:, :, None] + util[:, :, None] * (points - deadline3)
        )
        violation = (with_task > points + _TOL) & valid & (points >= deadline3)
        fits &= ~violation.any(axis=2)
        return fits
