"""Kernel bench: compiled LS / bracketed mu-search / QPA vs the reference paths.

Each section times one workload two ways -- the plain-Python reference
implementation (or the strategy a kernel replaced) and the fast path:

* **MINPROCS mu-search** -- the Fig. 3 search over a batch of wide,
  tight-deadline DAG tasks; the kernel side reuses one ``CompiledDAG`` per
  task and defers Slot/validation work to the fitting attempt.
* **mu-search strategy** -- the bracketed search vs the linear scan.
* **exact-EDF oracle** -- processor-demand feasibility of high-utilization
  sporadic sets with wide period spreads (large testing intervals): QPA
  (Zhang & Burns 2009) vs the full breakpoint scan.

Every workload's *results* are asserted identical between the two runs (the
bit-identity contract), timings land in ``benchmarks/BENCH_kernels.json``,
and the speedup floors are gated here.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from repro.core.cache import caches
from repro.core.dbf import demand_breakpoints, edf_exact_test, testing_interval_bound
from repro.core.kernels import use_kernels
from repro.core.minprocs import minprocs
from repro.model.dag import DAG
from repro.model.sporadic import SporadicTask
from repro.model.task import SporadicDAGTask

minprocs_module = __import__(
    "repro.core.minprocs", fromlist=["MU_SEARCH"]
)

ARTIFACT = Path(__file__).parent / "BENCH_kernels.json"

_SEED = 0
#: Best-of repeats per timed configuration.  Scheduling noise on busy CI
#: runners only ever *inflates* a run, so the minimum converges on the true
#: cost; five repeats keep the speedup ratios stable enough for the floors.
_REPEATS = 5

#: ISSUE 5 acceptance floors.
_MINPROCS_FLOOR = 3.0
_EXACT_FLOOR = 5.0
#: Floor of the bracketed mu-search over the linear scan (kernels on both
#: sides) on wide-mu-range tasks.
_MU_SEARCH_FLOOR = 2.0


def _minprocs_workload(count: int = 8) -> list[SporadicDAGTask]:
    """Chain-plus-fringe DAGs whose mu-search walks dozens of cluster sizes.

    Each DAG is a long chain (the critical path) with a cloud of short
    fringe vertices hung between its source and sink, and a deadline only
    2% above the span.  Under the ``smallest_wcet`` priority order List
    Scheduling serves the fringe before the chain, so the makespan is
    roughly ``fringe_volume / mu + span`` and MINPROCS must try ~30 cluster
    sizes per task before one fits -- the long-walk regime the compiled
    kernel is built for.
    """
    rng = random.Random(_SEED)
    tasks = []
    for index in range(count):
        wcets = {}
        edges = []
        for v in range(20):
            wcets[v] = rng.uniform(4.0, 6.0)
            if v:
                edges.append((v - 1, v))
        for f in range(100):
            v = 20 + f
            wcets[v] = rng.uniform(0.5, 1.5)
            edges.append((0, v))
            edges.append((v, 19))
        dag = DAG(wcets, edges)
        deadline = dag.longest_chain_length * 1.02
        tasks.append(
            SporadicDAGTask(dag, deadline, deadline * 1.5, name=f"hi{index}")
        )
    return tasks


def _mu_search_workload(count: int = 6) -> list[SporadicDAGTask]:
    """Wide-mu-range variant of :func:`_minprocs_workload`: twice the fringe
    and a 1% deadline margin, so the linear Figure 3 scan walks ~100 cluster
    sizes per task while the bracketed search probes ~a dozen."""
    rng = random.Random(_SEED)
    tasks = []
    for index in range(count):
        wcets = {}
        edges = []
        for v in range(20):
            wcets[v] = rng.uniform(4.0, 6.0)
            if v:
                edges.append((v - 1, v))
        for f in range(200):
            v = 20 + f
            wcets[v] = rng.uniform(0.5, 1.5)
            edges.append((0, v))
            edges.append((v, 19))
        dag = DAG(wcets, edges)
        deadline = dag.longest_chain_length * 1.01
        tasks.append(
            SporadicDAGTask(dag, deadline, deadline * 1.5, name=f"wm{index}")
        )
    return tasks


def _oracle_workload(sets: int = 8, tasks_per_set: int = 40):
    """High-utilization constrained-deadline sets with wide period spreads,
    i.e. long testing intervals with many breakpoints."""
    rng = random.Random(_SEED + 2)
    workload = []
    for _ in range(sets):
        shares = [rng.random() for _ in range(tasks_per_set)]
        scale = 0.88 / sum(shares)
        bucket = []
        for share in shares:
            period = 10.0 * (400.0 ** rng.random())  # log-uniform [10, 4000]
            utilization = share * scale
            deadline = period * rng.uniform(0.4, 0.95)
            bucket.append(
                SporadicTask(
                    wcet=utilization * period, deadline=deadline, period=period
                )
            )
        workload.append(bucket)
    return workload


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _time_both(run) -> tuple[float, float]:
    """(reference seconds, kernel seconds), each best-of-_REPEATS."""
    with use_kernels(False):
        old = _best_of(_REPEATS, run)
    with use_kernels(True):
        new = _best_of(_REPEATS, run)
    return old, new


def test_bench_kernels():
    cache_was_enabled = caches.enabled
    caches.disable()  # measure the kernels, not the memoization layer
    try:
        document = {"seed": _SEED, "repeats": _REPEATS, "floors": {
            "minprocs": _MINPROCS_FLOOR, "exact_oracle": _EXACT_FLOOR,
        }}

        # -- MINPROCS mu-search --------------------------------------------
        high_tasks = _minprocs_workload()

        def run_minprocs():
            return [
                minprocs(task, 512, order="smallest_wcet") for task in high_tasks
            ]

        # Pin the linear mu scan so this section keeps measuring kernel
        # LS-run speed over the same attempt stream as earlier PRs; the
        # bracketed-search win is measured separately below.
        minprocs_module.MU_SEARCH = "linear"
        try:
            with use_kernels(False):
                reference = run_minprocs()
            with use_kernels(True):
                kernel = run_minprocs()
            assert all(r is not None for r in reference)
            for a, b in zip(kernel, reference):
                assert (a.processors, a.attempts) == (b.processors, b.attempts)
                assert a.schedule.slots == b.schedule.slots
            old_s, new_s = _time_both(run_minprocs)
        finally:
            minprocs_module.MU_SEARCH = "bisect"
        attempts = sum(r.attempts for r in reference)
        minprocs_speedup = old_s / new_s
        document["minprocs"] = {
            "tasks": len(high_tasks),
            "ls_attempts": attempts,
            "old_seconds": old_s,
            "new_seconds": new_s,
            "speedup": minprocs_speedup,
        }

        # -- mu-search strategy: bracketed vs the PR 5 linear scan ---------
        wide_tasks = _mu_search_workload()

        def run_mu_search():
            return [
                minprocs(task, 1024, order="smallest_wcet")
                for task in wide_tasks
            ]

        with use_kernels(True):
            minprocs_module.MU_SEARCH = "linear"
            try:
                linear_results = run_mu_search()
                linear_s = _best_of(_REPEATS, run_mu_search)
            finally:
                minprocs_module.MU_SEARCH = "bisect"
            bisect_results = run_mu_search()
            bisect_s = _best_of(_REPEATS, run_mu_search)
        for a, b in zip(bisect_results, linear_results):
            assert (a.processors, a.attempts) == (b.processors, b.attempts)
            assert a.schedule.slots == b.schedule.slots
        mu_search_speedup = linear_s / bisect_s
        document["mu_search"] = {
            "tasks": len(wide_tasks),
            "linear_ls_runs": sum(r.ls_runs for r in linear_results),
            "bisect_ls_runs": sum(r.ls_runs for r in bisect_results),
            "old_seconds": linear_s,
            "new_seconds": bisect_s,
            "speedup": mu_search_speedup,
        }

        # -- exact-EDF oracle: QPA vs breakpoint scan ----------------------
        oracle_sets = _oracle_workload()
        breakpoints = sum(
            len(demand_breakpoints(bucket, testing_interval_bound(bucket)))
            for bucket in oracle_sets
        )

        def run_oracle():
            return [edf_exact_test(bucket) for bucket in oracle_sets]

        with use_kernels(False):
            ref_verdicts = run_oracle()
        with use_kernels(True):
            kern_verdicts = run_oracle()
        assert kern_verdicts == ref_verdicts
        old_s, new_s = _time_both(run_oracle)
        oracle_speedup = old_s / new_s
        document["exact_oracle"] = {
            "sets": len(oracle_sets),
            "tasks_per_set": len(oracle_sets[0]),
            "breakpoints": breakpoints,
            "accepted": sum(ref_verdicts),
            "old_seconds": old_s,
            "new_seconds": new_s,
            "speedup": oracle_speedup,
        }

        document["equivalence"] = {
            "minprocs": True, "mu_search": True, "exact_oracle": True,
        }
        document["floors"]["mu_search"] = _MU_SEARCH_FLOOR
        ARTIFACT.write_text(json.dumps(document, indent=2) + "\n")

        assert minprocs_speedup >= _MINPROCS_FLOOR, (
            f"MINPROCS kernel speedup {minprocs_speedup:.2f}x below the "
            f"{_MINPROCS_FLOOR}x floor"
        )
        assert mu_search_speedup >= _MU_SEARCH_FLOOR, (
            f"bracketed mu-search speedup {mu_search_speedup:.2f}x below "
            f"the {_MU_SEARCH_FLOOR}x floor"
        )
        assert oracle_speedup >= _EXACT_FLOOR, (
            f"exact-oracle QPA speedup {oracle_speedup:.2f}x below the "
            f"{_EXACT_FLOOR}x floor"
        )
    finally:
        caches.enabled = cache_was_enabled
