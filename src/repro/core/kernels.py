"""Compiled analysis kernels: flat-array LS, vectorized DBF*, and QPA.

The three analysis hot loops -- Graham List Scheduling inside the MINPROCS
mu-search (Fig. 3), DBF* demand evaluation inside PARTITION (Baruah & Fisher
2006), and the exact processor-demand oracle -- are pure functions that the
experiment sweeps and the online controller call millions of times.  This
module provides faster *drop-in* implementations of each, with one hard
contract:

    **every kernel is bit-identical to the plain-Python path it replaces** --
    same schedules, same makespans, same partition assignments, same
    accept/reject verdicts, down to the last float.

The repo's determinism, golden-CSV and replay tests depend on that contract;
:mod:`tests.test_kernels` enforces it property-by-property with Hypothesis.

Three kernels live here:

:class:`CompiledDAG`
    an int-indexed flat view of a :class:`~repro.model.dag.DAG` (WCET vector,
    CSR successor adjacency, indegree template, upward ranks,
    per-named-order priority permutations), compiled once per DAG and
    memoized on the DAG instance (plus the digest-keyed ``compiled`` LRU when
    the analysis caches are on); a scaled copy's artifact shares its
    original's structure and computes only what depends on the WCETs.
    :func:`ls_run` then executes Graham LS as an index-based heap loop with
    no ``repr`` churn, no per-call priority re-sort, no ``dict(dag.wcets)``
    copy, and no dict-keyed heaps -- MINPROCS reuses one artifact across
    all its mu attempts.

:func:`dbf_star_totals` / :func:`dbf_star_all_within`
    ``sum_i DBF*(tau_i, t)`` over a whole vector of test points in one numpy
    pass.  The accumulation is **per-task sequential** (``total += row``),
    not ``np.sum`` (which sums pairwise and would round differently), so
    each total is bit-identical to the scalar left-to-right Python sum.

:func:`qpa_exact_test`
    Quick Processor-demand Analysis (Zhang & Burns, IEEE TC 2009): instead
    of scanning *every* absolute deadline in the testing interval, iterate
    ``t <- largest breakpoint < h(t) - tol`` backwards from the end of the
    interval.  See the function docstring for the equivalence argument with
    the repo's toleranced breakpoint scan.

Kernels are **enabled by default** and can be switched off globally
(``disable_kernels()``, or ``REPRO_KERNELS=0`` in the environment) or per
block (``with use_kernels(False): ...``) -- the equivalence tests run both
sides of every comparison this way.
"""

from __future__ import annotations

import heapq
import math
import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

import numpy as np

from repro.errors import AnalysisError
from repro.core.cache import MISSING, caches as _caches
from repro.core.schedule import Schedule, Slot
from repro.model.dag import DAG
from repro.model.sporadic import SporadicTask

__all__ = [
    "CompiledDAG",
    "compile_dag",
    "ls_run",
    "build_schedule",
    "dbf_star_totals",
    "dbf_star_all_within",
    "latest_breakpoint",
    "qpa_exact_test",
    "flags",
    "kernels_enabled",
    "enable_kernels",
    "disable_kernels",
    "use_kernels",
    "kernel_backend",
]


class KernelFlags:
    """The process-wide kernel switch (one attribute read on the hot path).

    ``enabled`` follows ``REPRO_KERNELS``: ``0``/``off``/``false``/``no``
    fall back to the pure-Python reference paths, any other value keeps the
    kernels on.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        raw = os.environ.get("REPRO_KERNELS", "1").lower()
        self.enabled = raw not in ("0", "off", "false", "no")


#: Global switch consulted by every routed hot path.
flags = KernelFlags()


def kernels_enabled() -> bool:
    """Whether the compiled kernels are currently active."""
    return flags.enabled


def enable_kernels() -> None:
    """Route the analysis hot paths through the compiled kernels (default)."""
    flags.enabled = True


def disable_kernels() -> None:
    """Fall back to the plain-Python reference implementations."""
    flags.enabled = False


@contextmanager
def use_kernels(enabled: bool = True) -> Iterator[None]:
    """Scoped kernel switch; restores the previous state afterwards."""
    previous = flags.enabled
    flags.enabled = enabled
    try:
        yield
    finally:
        flags.enabled = previous


def kernel_backend() -> str:
    """The tier answering the hot paths: ``"numpy"`` with the kernels on,
    ``"python"`` (the reference paths) with them off."""
    return "numpy" if flags.enabled else "python"


# ---------------------------------------------------------------------------
# CompiledDAG: the flat, int-indexed List-Scheduling artifact
# ---------------------------------------------------------------------------

class CompiledDAG:
    """Flat int-indexed structures of one DAG, shared across many LS runs.

    Vertex ``i`` is the ``i``-th vertex of ``dag.vertices`` (the DAG's
    canonical topological order); the artifact holds no reference back to the
    DAG, so it can live in the digest-keyed analysis cache without pinning
    model objects.  Nothing mutates ``vertices``, ``index``, the successor
    CSR or the indegree template after construction, so :meth:`rescaled`
    shares them between an original and its scaled copies.
    """

    __slots__ = (
        "vertices",
        "index",
        "wcet",
        "succ_indptr",
        "succ_indices",
        "indegree",
        "_upward",
        "_priority",
    )

    def __init__(self, dag: DAG) -> None:
        verts = dag.vertices
        index = {v: i for i, v in enumerate(verts)}
        #: Vertices in topological order (``vertices[i]`` names index ``i``).
        self.vertices = verts
        #: Vertex identifier -> flat index.
        self.index = index
        #: ``wcet[i]`` -- execution time of vertex ``i``.
        self.wcet = [dag.wcet(v) for v in verts]
        succ_indptr = [0]
        succ_indices: list[int] = []
        for v in verts:
            succ_indices.extend(index[s] for s in dag.successors(v))
            succ_indptr.append(len(succ_indices))
        #: CSR adjacency: successors of ``i`` are
        #: ``succ_indices[succ_indptr[i]:succ_indptr[i + 1]]``.
        self.succ_indptr = succ_indptr
        self.succ_indices = succ_indices
        #: Indegree template; :func:`ls_run` copies it per run.
        indegree = [0] * len(verts)
        for j in succ_indices:
            indegree[j] += 1
        self.indegree = indegree
        self._upward: list[float] | None = None
        self._priority: dict[str, list[int]] = {}

    def rescaled(self, dag: DAG) -> "CompiledDAG":
        """The artifact of *dag*, a scaled copy of the DAG compiled here.

        ``DAG.scaled`` keeps the original's topological order and successor
        map, so the copy's vertex index, successor CSR and indegree template
        are this artifact's; they are shared by reference.  Only the WCET
        vector is computed (the upward ranks and priority permutations are
        computed on first use, as for any artifact).  The result equals
        ``CompiledDAG(dag)`` field by field.
        """
        copy = CompiledDAG.__new__(CompiledDAG)
        copy.vertices = self.vertices
        copy.index = self.index
        copy.wcet = [dag.wcet(v) for v in self.vertices]
        copy.succ_indptr = self.succ_indptr
        copy.succ_indices = self.succ_indices
        copy.indegree = self.indegree
        copy._upward = None
        copy._priority = {}
        return copy

    def __len__(self) -> int:
        return len(self.wcet)

    def upward_rank(self) -> list[float]:
        """Longest-chain length starting at each vertex (inclusive), by index.

        Float-identical to ``list_scheduling._upward_rank``: same reverse
        topological sweep, same ``wcet + max(successor ranks)`` expression.
        """
        rank = self._upward
        if rank is None:
            n = len(self.wcet)
            rank = [0.0] * n
            wcet = self.wcet
            indptr = self.succ_indptr
            succ = self.succ_indices
            for i in range(n - 1, -1, -1):
                tail = max(
                    (rank[j] for j in succ[indptr[i]:indptr[i + 1]]), default=0.0
                )
                rank[i] = wcet[i] + tail
            self._upward = rank
        return rank

    def priority(self, order: str) -> list[int]:
        """Priority ranks by vertex index for a *named* order, memoized.

        ``priority(order)[i]`` equals the rank of vertex ``i`` in
        ``priority_list(dag, order)``; the tie-breaks (topological position)
        match ``list_scheduling._order_*`` exactly, so the LS heap pops in
        the identical sequence.
        """
        prio = self._priority.get(order)
        if prio is not None:
            return prio
        n = len(self.wcet)
        if order == "topological":
            perm = list(range(n))
        elif order == "longest_path":
            rank = self.upward_rank()
            perm = sorted(range(n), key=lambda i: (-rank[i], i))
        elif order == "largest_wcet":
            wcet = self.wcet
            perm = sorted(range(n), key=lambda i: (-wcet[i], i))
        elif order == "smallest_wcet":
            wcet = self.wcet
            perm = sorted(range(n), key=lambda i: (wcet[i], i))
        else:
            # Same message as priority_list's unknown-order error.
            raise AnalysisError(
                f"unknown priority order {order!r}; available: "
                f"{sorted(('topological', 'longest_path', 'largest_wcet', 'smallest_wcet'))}"
            )
        prio = [0] * n
        for rank_position, i in enumerate(perm):
            prio[i] = rank_position
        self._priority[order] = prio
        return prio


def compile_dag(dag: DAG) -> CompiledDAG:
    """The (memoized) compiled artifact of *dag*.

    Compiled once per DAG instance; when the analysis caches are enabled the
    artifact is additionally shared across digest-equal DAG instances via
    ``caches.compiled``.  A scaled copy (``DAG.scaled``) is not compiled
    from scratch: its artifact is its original's, through
    :meth:`CompiledDAG.rescaled`, with no digest and no cache lookup.
    """
    compiled = dag._compiled
    if compiled is not None:
        return compiled
    if dag._origin is not None:
        compiled = compile_dag(dag._origin).rescaled(dag)
    elif _caches.enabled:
        key = dag.digest()
        hit = _caches.compiled.get(key)
        if hit is not MISSING:
            dag._compiled = hit
            return hit
        compiled = CompiledDAG(dag)
        _caches.compiled.put(key, compiled)
    else:
        compiled = CompiledDAG(dag)
    dag._compiled = compiled
    return compiled


def ls_run(
    compiled: CompiledDAG, processors: int, prio: Sequence[int]
) -> tuple[float, list[tuple[int, float, float, int]]]:
    """One Graham LS pass over a compiled DAG.

    Returns ``(makespan, raw)`` where ``raw`` lists
    ``(vertex_index, start, end, processor)`` in assignment order --
    exactly the slots :func:`repro.core.list_scheduling.list_schedule`
    produces, by construction: priority ranks are unique ints, so every heap
    comparison resolves on the first tuple element and the pop order is
    identical to the dict-keyed reference loop; start/end times are the same
    ``now + wcet`` float expressions.
    """
    n = len(compiled.wcet)
    wcet = compiled.wcet
    indptr = compiled.succ_indptr
    succ = compiled.succ_indices
    indegree = list(compiled.indegree)

    ready = [(prio[i], i) for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    tie = 0
    running: list[tuple[float, int, int]] = []
    idle = processors
    now = 0.0
    raw: list[tuple[int, float, float, int]] = []
    assigned = [0] * n
    free_procs = list(range(processors - 1, -1, -1))
    makespan = 0.0

    scheduled = 0
    while scheduled < n:
        while ready and idle > 0:
            _, i = heapq.heappop(ready)
            proc = free_procs.pop()
            assigned[i] = proc
            end = now + wcet[i]
            raw.append((i, now, end, proc))
            if end > makespan:
                makespan = end
            heapq.heappush(running, (end, tie, i))
            tie += 1
            idle -= 1
            scheduled += 1
        if scheduled >= n:
            break
        if not running:
            raise AnalysisError(
                "LS deadlocked: no running job but unscheduled vertices remain"
            )
        now = running[0][0]
        while running and running[0][0] <= now:
            _, _, done = heapq.heappop(running)
            free_procs.append(assigned[done])
            idle += 1
            for k in range(indptr[done], indptr[done + 1]):
                j = succ[k]
                indegree[j] -= 1
                if indegree[j] == 0:
                    heapq.heappush(ready, (prio[j], j))
    return makespan, raw


def build_schedule(
    dag: DAG,
    compiled: CompiledDAG,
    processors: int,
    raw: Sequence[tuple[int, float, float, int]],
) -> Schedule:
    """Materialize an :func:`ls_run` result as a full :class:`Schedule`.

    MINPROCS probes many mu values but only the first fitting one needs Slot
    objects and validation; this is the deferred expensive half.
    """
    vertices = compiled.vertices
    slots = [
        Slot(start=start, end=end, processor=proc, vertex=vertices[i])
        for i, start, end, proc in raw
    ]
    return Schedule(dag, slots, processors)


# ---------------------------------------------------------------------------
# Vectorized DBF*
# ---------------------------------------------------------------------------

def dbf_star_totals(
    tasks: Sequence[SporadicTask], points: Sequence[float]
) -> np.ndarray:
    """``sum_i DBF*(tau_i, t)`` for every ``t`` in *points*, in one pass.

    Bit-identical to calling ``total_dbf_approx`` at each point: tasks are
    accumulated **sequentially in input order** (``total += row``) rather
    than with ``np.sum`` (whose pairwise summation rounds differently), and
    each row is the same ``C + u * (t - D)`` expression ``dbf_approx`` uses.
    """
    pts = np.asarray(points, dtype=float)
    total = np.zeros(pts.shape)
    for task in tasks:
        deadline = task.deadline
        total += np.where(
            pts < deadline,
            0.0,
            task.wcet + task.utilization * (pts - deadline),
        )
    return total


def dbf_star_all_within(
    tasks: Sequence[SporadicTask], points: Sequence[float], tol: float
) -> bool:
    """True iff ``sum_i DBF*(tau_i, t) <= t + tol`` at every point."""
    pts = np.asarray(points, dtype=float)
    totals = dbf_star_totals(tasks, pts)
    return not bool(np.any(totals > pts + tol))


# ---------------------------------------------------------------------------
# QPA: Quick Processor-demand Analysis (Zhang & Burns 2009)
# ---------------------------------------------------------------------------

def latest_breakpoint(
    tasks: Sequence[SporadicTask], x: float, strict: bool = False
) -> float | None:
    """The largest demand breakpoint ``k * T_i + D_i`` at most (below) *x*.

    Breakpoints are the absolute deadlines of the synchronous arrival
    pattern, the exact points ``demand_breakpoints`` enumerates; each
    candidate is computed with the same ``k * period + deadline`` float
    expression as ``SporadicTask.deadlines_in`` (integer ``k``), with a
    guarded +-1 adjustment so float rounding in the initial
    ``floor((x - D) / T)`` estimate can never select the wrong neighbour.

    With ``strict=True`` returns the largest breakpoint strictly below *x*;
    ``None`` when no breakpoint qualifies.
    """
    best: float | None = None
    for task in tasks:
        deadline = task.deadline
        period = task.period
        if deadline >= x if strict else deadline > x:
            continue
        k = math.floor((x - deadline) / period)
        if strict:
            while k >= 0 and k * period + deadline >= x:
                k -= 1
            while (k + 1) * period + deadline < x:
                k += 1
        else:
            while k >= 0 and k * period + deadline > x:
                k -= 1
            while (k + 1) * period + deadline <= x:
                k += 1
        if k < 0:
            continue
        candidate = k * period + deadline
        if best is None or candidate > best:
            best = candidate
    return best


def qpa_exact_test(
    tasks: Sequence[SporadicTask],
    bound: float,
    total_demand: Callable[[Sequence[SporadicTask], float], float],
    tol: float,
) -> bool:
    """Exact EDF processor-demand test via backward fixed-point iteration.

    Decision-equivalent to scanning every breakpoint ``d`` in ``(0, bound]``
    for ``h(d) > d + tol`` (``h`` = *total_demand*, the exact aggregate
    ``dbf``), but visits only a short chain of points:

    1. start at ``t`` = the largest breakpoint ``<= bound``;
    2. if ``h(t) > t + tol`` -- a genuine violation at a breakpoint -- fail;
    3. otherwise no breakpoint in ``[h(t) - tol, t]`` can violate (any
       violating ``d`` satisfies ``d < h(d) - tol <= h(t) - tol`` because
       ``h`` is non-decreasing), so jump to the largest breakpoint strictly
       below ``h(t) - tol`` and repeat; pass when none remains.

    Termination: ``h(t) - tol <= t`` whenever step 2 passes, so ``t``
    strictly decreases over the finite breakpoint set.  Soundness: step 3's
    jump never skips a violating breakpoint, and step 2 only fails on points
    the scan would also fail on -- hence bit-identical verdicts.
    """
    t = latest_breakpoint(tasks, bound, strict=False)
    while t is not None:
        demand = total_demand(tasks, t)
        if demand > t + tol:
            return False
        t = latest_breakpoint(tasks, demand - tol, strict=True)
    return True
