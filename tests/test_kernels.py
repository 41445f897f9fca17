"""The old-vs-new equivalence harness for the compiled analysis kernels.

Every hot path routed through :mod:`repro.core.kernels` must be
**bit-identical** to the plain-Python reference implementation it replaces:
same LS slot lists and makespans, same MINPROCS cluster sizes and attempt
counts, same partition assignments, same exact/approx accept/reject verdicts
(QPA vs the full breakpoint scan).  These tests run both sides of every
comparison by flipping the global kernel switch with ``use_kernels``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.cache import caches, caching
from repro.core.dbf import (
    demand_breakpoints,
    edf_approx_test,
    edf_exact_test,
    testing_interval_bound,
    total_dbf,
)
from repro.core.fedcons import fedcons
from repro.core.kernels import (
    CompiledDAG,
    compile_dag,
    kernels_enabled,
    latest_breakpoint,
    qpa_exact_test,
    use_kernels,
)
from repro.core.list_scheduling import (
    PRIORITY_ORDERS,
    compiled_priority,
    list_schedule,
    prepare_ls,
    priority_list,
)
from repro.core.minprocs import minprocs
from repro.core.partition import AdmissionTest, TaskOrder, partition_sporadic
from repro.core.shard import ShardState
from repro.errors import AnalysisError
from repro.generation.tasksets import SystemConfig, generate_system
from repro.model.dag import DAG
from repro.model.sporadic import SporadicTask
from repro.model.task import SporadicDAGTask

from strategies import dag_tasks, dags, sporadic_sets, sporadic_tasks, wcets

_TOL = 1e-9


def test_kernels_enabled_by_default():
    # The golden-CSV and replay tests run with defaults; this guard makes
    # sure they actually exercise the kernel paths.
    assert kernels_enabled()


# ---------------------------------------------------------------------------
# CompiledDAG artifact
# ---------------------------------------------------------------------------


class TestCompiledDAG:
    @given(dags())
    def test_flat_structures_mirror_dag(self, dag):
        compiled = CompiledDAG(dag)
        assert compiled.vertices == dag.vertices
        assert len(compiled) == len(dag)
        for i, v in enumerate(dag.vertices):
            assert compiled.index[v] == i
            assert compiled.wcet[i] == dag.wcet(v)
            succ = compiled.succ_indices[
                compiled.succ_indptr[i]:compiled.succ_indptr[i + 1]
            ]
            assert tuple(compiled.vertices[j] for j in succ) == dag.successors(v)
            assert compiled.indegree[i] == len(dag.predecessors(v))

    @given(dags())
    def test_priority_permutations_match_priority_list(self, dag):
        compiled = CompiledDAG(dag)
        for order in PRIORITY_ORDERS:
            reference = {
                v: rank for rank, v in enumerate(priority_list(dag, order))
            }
            prio = compiled.priority(order)
            assert prio == [reference[v] for v in dag.vertices]

    @given(dags())
    def test_explicit_order_maps_to_indices(self, dag):
        explicit = list(reversed(dag.vertices))
        compiled = CompiledDAG(dag)
        prio = compiled_priority(compiled, dag, explicit)
        assert prio == [explicit.index(v) for v in dag.vertices]

    def test_unknown_order_message_matches_reference(self, diamond_dag):
        compiled = CompiledDAG(diamond_dag)
        with pytest.raises(AnalysisError) as kernel_err:
            compiled.priority("mystery")
        with pytest.raises(AnalysisError) as reference_err:
            priority_list(diamond_dag, "mystery")
        assert str(kernel_err.value) == str(reference_err.value)

    def test_memoized_per_dag_instance(self, diamond_dag):
        assert compile_dag(diamond_dag) is compile_dag(diamond_dag)

    def test_shared_across_equal_dags_via_cache(self, diamond_dag):
        clone = DAG(diamond_dag.wcets, diamond_dag.edges)
        with caching() as active:
            active.reset_counters()
            first = compile_dag(diamond_dag)
            assert compile_dag(clone) is first
            assert caches.compiled.hits == 1

    def test_pickling_drops_compiled_artifact(self, diamond_dag):
        compile_dag(diamond_dag)
        assert diamond_dag._compiled is not None
        restored = pickle.loads(pickle.dumps(diamond_dag))
        assert restored == diamond_dag
        assert restored._compiled is None
        assert restored.digest() == diamond_dag.digest()


# ---------------------------------------------------------------------------
# List Scheduling
# ---------------------------------------------------------------------------


class TestListScheduleEquivalence:
    @settings(max_examples=60)
    @given(dags(), st.integers(min_value=1, max_value=6),
           st.sampled_from(sorted(PRIORITY_ORDERS)))
    def test_slots_bit_identical(self, dag, m, order):
        with use_kernels(True):
            fast = list_schedule(dag, m, order=order)
        with use_kernels(False):
            slow = list_schedule(dag, m, order=order)
        assert fast.slots == slow.slots
        assert fast.makespan == slow.makespan

    @given(dags(), st.integers(min_value=1, max_value=4))
    def test_explicit_order_bit_identical(self, dag, m):
        explicit = list(reversed(dag.vertices))
        with use_kernels(True):
            fast = list_schedule(dag, m, order=explicit)
        with use_kernels(False):
            slow = list_schedule(dag, m, order=explicit)
        assert fast.slots == slow.slots

    @given(dags(), st.integers(min_value=1, max_value=4))
    def test_prepared_inputs_bit_identical(self, dag, m):
        prepared = prepare_ls(dag, "longest_path")
        via_prepared = list_schedule(dag, m, prepared=prepared)
        plain = list_schedule(dag, m, order="longest_path")
        assert via_prepared.slots == plain.slots

    def test_prepared_for_other_dag_rejected(self, diamond_dag, chain_dag):
        prepared = prepare_ls(chain_dag, "longest_path")
        with pytest.raises(AnalysisError, match="different DAG"):
            list_schedule(diamond_dag, 2, prepared=prepared)

    def test_wcets_override_uses_reference_path(self, diamond_dag):
        # The what-if override path is shared; just check it still works and
        # matches the kernel-off run.
        override = {v: w + 1.0 for v, w in diamond_dag.wcets.items()}
        with use_kernels(True):
            fast = list_schedule(diamond_dag, 2, wcets=override)
        with use_kernels(False):
            slow = list_schedule(diamond_dag, 2, wcets=override)
        assert fast.slots == slow.slots


class TestPriorityListValidation:
    def test_missing_vertices_reported(self, diamond_dag):
        with pytest.raises(AnalysisError, match="missing 2, 3"):
            priority_list(diamond_dag, [0, 1])

    def test_duplicates_reported(self, diamond_dag):
        with pytest.raises(AnalysisError, match="duplicated 0"):
            priority_list(diamond_dag, [0, 0, 1, 2, 3])

    def test_unknown_vertices_reported(self, diamond_dag):
        with pytest.raises(AnalysisError, match="unknown 9"):
            priority_list(diamond_dag, [0, 1, 2, 9])

    def test_valid_explicit_order_accepted(self, diamond_dag):
        assert priority_list(diamond_dag, [3, 2, 1, 0]) == [3, 2, 1, 0]


# ---------------------------------------------------------------------------
# MINPROCS
# ---------------------------------------------------------------------------


class TestMinprocsEquivalence:
    @settings(max_examples=50)
    @given(dag_tasks(), st.integers(min_value=0, max_value=12))
    def test_search_bit_identical(self, task, available):
        with use_kernels(True):
            fast = minprocs(task, available)
        with use_kernels(False):
            slow = minprocs(task, available)
        if slow is None:
            assert fast is None
            return
        assert fast is not None
        assert fast.processors == slow.processors
        assert fast.attempts == slow.attempts
        assert fast.schedule.slots == slow.schedule.slots
        assert fast.schedule.makespan == slow.schedule.makespan

    @given(dag_tasks())
    def test_cached_equals_uncached_with_kernels(self, task):
        with use_kernels(True):
            plain = minprocs(task, 8)
            with caching():
                warm = minprocs(task, 8)
                again = minprocs(task, 8)
        for cached in (warm, again):
            if plain is None:
                assert cached is None
            else:
                assert cached.processors == plain.processors
                assert cached.attempts == plain.attempts
                assert cached.schedule.slots == plain.schedule.slots


# ---------------------------------------------------------------------------
# DBF* vector kernel
# ---------------------------------------------------------------------------


class TestDbfStarVector:
    @given(sporadic_sets(max_tasks=6),
           st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=20))
    def test_totals_bit_identical_to_scalar_sum(self, tasks, points):
        totals = kernels.dbf_star_totals(tasks, points)
        for point, total in zip(points, totals):
            assert total == sum(task.dbf_approx(point) for task in tasks)

    @settings(max_examples=60)
    @given(sporadic_sets(max_tasks=6))
    def test_edf_approx_verdicts_identical(self, tasks):
        with use_kernels(True):
            fast = edf_approx_test(tasks)
        with use_kernels(False):
            slow = edf_approx_test(tasks)
        assert fast == slow


class TestShardVectorProbe:
    @settings(max_examples=50)
    @given(sporadic_sets(max_tasks=8), sporadic_tasks())
    def test_fits_all_points_identical(self, tasks, candidate):
        # The single scan and the per-point definition (shard demand plus
        # the candidate's DBF* at every stored deadline from its own on)
        # give one verdict.
        shard = ShardState((task, rank) for rank, task in enumerate(tasks))
        reference = shard.fits_at_deadline(candidate) and all(
            shard.demand(task.deadline) + candidate.dbf_approx(task.deadline)
            <= task.deadline + _TOL
            for task in tasks
            if task.deadline >= candidate.deadline
        )
        assert shard.fits_all_points(candidate) == reference

    def test_remove_frees_a_test_point(self):
        # Removing t2 frees the test point t=2, so the probe fits only
        # afterwards; prefix arrays left stale by remove() would not say so.
        tasks = [
            SporadicTask(wcet=0.5, deadline=float(d), period=40.0, name=f"t{d}")
            for d in range(2, 22)
        ]
        shard = ShardState()
        for rank, task in enumerate(tasks):
            shard.add(task, rank)
        probe = SporadicTask(wcet=1.6, deadline=2.0, period=50.0)
        assert not shard.fits_all_points(probe)
        removed = shard.remove("t2")
        assert removed.deadline == 2.0
        assert shard.fits_all_points(probe)


# ---------------------------------------------------------------------------
# Exact oracle: QPA vs breakpoint scan
# ---------------------------------------------------------------------------


def _scan_exact(tasks, bound):
    """The reference full breakpoint scan (pre-QPA edf_exact_test body)."""
    for point in demand_breakpoints(tasks, bound):
        if total_dbf(tasks, point) > point + _TOL:
            return False
    return True


class TestQpaEquivalence:
    @given(sporadic_sets(max_tasks=5),
           st.floats(min_value=0.0, max_value=150.0))
    def test_latest_breakpoint_matches_enumeration(self, tasks, x):
        points = demand_breakpoints(tasks, x)
        assert latest_breakpoint(tasks, x) == (points[-1] if points else None)
        strict_points = [p for p in points if p < x]
        assert latest_breakpoint(tasks, x, strict=True) == (
            strict_points[-1] if strict_points else None
        )

    @settings(max_examples=80)
    @given(sporadic_sets(max_tasks=5),
           st.floats(min_value=0.0, max_value=120.0))
    def test_qpa_equals_scan_on_fixed_horizon(self, tasks, horizon):
        assert qpa_exact_test(tasks, horizon, total_dbf, _TOL) == _scan_exact(
            tasks, horizon
        )

    @settings(max_examples=40)
    @given(sporadic_sets(max_tasks=4))
    def test_edf_exact_verdicts_identical(self, tasks):
        if sum(t.utilization for t in tasks) <= 1.0 + _TOL:
            # Keep the reference scan affordable under hypothesis.
            bound = testing_interval_bound(tasks)
            if bound > 5000.0:
                return
        with use_kernels(True):
            fast = edf_exact_test(tasks)
        with use_kernels(False):
            slow = edf_exact_test(tasks)
        assert fast == slow

    def test_exact_demand_boundary_cases(self):
        # h(t) == t exactly at every breakpoint: both sides must accept.
        tight = [SporadicTask(wcet=0.5, deadline=0.5, period=1.0)]
        assert qpa_exact_test(tight, 10.0, total_dbf, _TOL)
        assert _scan_exact(tight, 10.0)
        # Violation within tolerance: both accept.
        near = [SporadicTask(wcet=0.5 + 5e-10, deadline=0.5, period=1000.0)]
        assert qpa_exact_test(near, 10.0, total_dbf, _TOL)
        assert _scan_exact(near, 10.0)
        # Violation beyond tolerance: both reject.
        over = [SporadicTask(wcet=0.5 + 1e-7, deadline=0.5, period=1000.0)]
        assert not qpa_exact_test(over, 10.0, total_dbf, _TOL)
        assert not _scan_exact(over, 10.0)

    def test_empty_interval_passes(self):
        tasks = [SporadicTask(wcet=1.0, deadline=5.0, period=10.0)]
        assert qpa_exact_test(tasks, 1.0, total_dbf, _TOL)
        assert _scan_exact(tasks, 1.0)


# ---------------------------------------------------------------------------
# PARTITION and full FEDCONS
# ---------------------------------------------------------------------------


class TestPartitionEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(sporadic_sets(max_tasks=6), st.integers(min_value=1, max_value=3),
           st.sampled_from(sorted(AdmissionTest, key=lambda a: a.value)),
           st.sampled_from([TaskOrder.DEADLINE, TaskOrder.GIVEN]))
    def test_assignments_bit_identical(self, tasks, m, admission, order):
        named = [
            SporadicTask(wcet=t.wcet, deadline=t.deadline, period=t.period,
                         name=f"task#{i}")
            for i, t in enumerate(tasks)
        ]
        with use_kernels(True):
            fast = partition_sporadic(named, m, order=order, admission=admission)
        with use_kernels(False):
            slow = partition_sporadic(named, m, order=order, admission=admission)
        assert fast.success == slow.success
        assert fast.assignment == slow.assignment
        assert fast.failed_task == slow.failed_task


class TestFedconsEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_analysis_bit_identical(self, seed):
        config = SystemConfig(
            tasks=10, processors=8, normalized_utilization=0.6,
            min_vertices=5, max_vertices=12,
        )
        system = generate_system(config, seed)
        with use_kernels(True):
            fast = fedcons(system, 8)
        with use_kernels(False):
            slow = fedcons(system, 8)
        assert fast.success == slow.success
        assert fast.reason == slow.reason
        assert fast.describe() == slow.describe()
        assert len(fast.allocations) == len(slow.allocations)
        for a, b in zip(fast.allocations, slow.allocations):
            assert a.processors == b.processors
            assert a.minprocs_attempts == b.minprocs_attempts
            assert a.schedule.slots == b.schedule.slots
        if slow.partition is not None:
            assert fast.partition is not None
            assert fast.partition.assignment == slow.partition.assignment


# ---------------------------------------------------------------------------
# profiling CLI (satellite: --profile)
# ---------------------------------------------------------------------------


class TestProfileFlag:
    def test_analyze_profile_writes_loadable_pstats(self, tmp_path, capsys):
        import pstats

        from repro.cli import analyze_main, generate_main

        system_path = tmp_path / "system.json"
        assert generate_main(
            [str(system_path), "-n", "6", "-m", "4", "--seed", "1"]
        ) == 0
        profile_path = tmp_path / "analysis.pstats"
        analyze_main(
            [str(system_path), "-m", "4", "--profile", str(profile_path)]
        )
        assert profile_path.exists()
        stats = pstats.Stats(str(profile_path))
        assert len(stats.stats) > 0
        assert "profile written to" in capsys.readouterr().out

    def test_experiments_profile_writes_loadable_pstats(self, tmp_path, capsys):
        import pstats

        from repro.experiments.runner import main

        profile_path = tmp_path / "sweep.pstats"
        assert main(
            ["--experiment", "FIG1", "--quick", "--profile", str(profile_path)]
        ) == 0
        stats = pstats.Stats(str(profile_path))
        assert len(stats.stats) > 0
        assert "profile written to" in capsys.readouterr().out
