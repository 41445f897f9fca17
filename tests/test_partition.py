"""Unit tests for repro.core.partition (Figure 4 of the paper)."""

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.core.dbf import edf_approx_test, edf_exact_test
from repro.core.partition import (
    AdmissionTest,
    FitStrategy,
    TaskOrder,
    partition,
    partition_sporadic,
)
from repro.core.shard import ShardState
from repro.model.dag import DAG
from repro.model.sporadic import SporadicTask
from repro.model.task import SporadicDAGTask
from repro.obs import PartitionAttempt, tracing

from strategies import constrained_sets


def _spor(w, d, t, name=""):
    return SporadicTask(w, d, t, name=name)


def _dag_task(w, d, t, name=""):
    return SporadicDAGTask(DAG.single_vertex(w), d, t, name=name)


class TestPartitionSporadic:
    def test_single_task_fits(self):
        result = partition_sporadic([_spor(1, 4, 10)], 1)
        assert result.success
        assert result.used_processors == 1

    def test_zero_processors_fails_nonempty(self):
        result = partition_sporadic([_spor(1, 4, 10)], 0)
        assert not result.success
        assert result.failed_task is not None

    def test_zero_processors_empty_ok(self):
        assert partition_sporadic([], 0).success

    def test_negative_processors_rejected(self):
        with pytest.raises(AnalysisError):
            partition_sporadic([], -1)

    def test_deadline_order_is_default(self):
        # Two tasks that only fit if the short-deadline one is placed first
        # on its own processor evaluation order.
        tasks = [_spor(3, 10, 10, "late"), _spor(2, 2, 10, "early")]
        result = partition_sporadic(tasks, 1)
        assert result.success
        placed = [t.name for t in result.assignment[0]]
        assert placed == ["early", "late"]

    def test_spreads_when_needed(self):
        tasks = [_spor(2, 2, 10, "a"), _spor(2, 2, 10, "b")]
        result = partition_sporadic(tasks, 2)
        assert result.success
        assert result.used_processors == 2

    def test_failure_reports_task(self):
        tasks = [_spor(2, 2, 10, "a"), _spor(2, 2, 10, "b")]
        result = partition_sporadic(tasks, 1)
        assert not result.success
        assert result.failed_task.name == "b"

    def test_accepted_buckets_pass_exact_edf(self, rng):
        for _ in range(30):
            tasks = [
                _spor(
                    float(rng.uniform(0.2, 2)),
                    float(rng.uniform(2, 10)),
                    float(rng.uniform(10, 30)),
                    name=f"t{i}",
                )
                for i in range(8)
            ]
            result = partition_sporadic(tasks, 3)
            if result.success:
                for bucket in result.assignment:
                    assert edf_approx_test(list(bucket))
                    assert edf_exact_test(list(bucket))
                assert result.verify()
                assert result.verify(exact=True)

    def test_rate_condition_enforced(self):
        # Demand at D fits, but long-run utilization would exceed 1.
        tasks = [_spor(6, 10, 10, "u6"), _spor(5, 20, 10, "u5")]
        result = partition_sporadic(tasks, 1)
        assert not result.success

    def test_processor_of(self):
        tasks = [_spor(1, 4, 10, "a"), _spor(1, 5, 10, "b")]
        result = partition_sporadic(tasks, 2)
        assert result.processor_of(result.assignment[0][0]) == 0

    def test_processor_of_unknown(self):
        result = partition_sporadic([_spor(1, 4, 10, "a")], 1)
        with pytest.raises(AnalysisError, match="not in this partition"):
            result.processor_of(_spor(9, 9, 9, "ghost"))


class TestOrderings:
    def test_given_order_preserved(self):
        tasks = [_spor(1, 9, 10, "z"), _spor(1, 2, 10, "a")]
        result = partition_sporadic(tasks, 1, order=TaskOrder.GIVEN)
        assert [t.name for t in result.assignment[0]] == ["z", "a"]

    def test_density_order(self):
        tasks = [_spor(1, 10, 10, "light"), _spor(5, 10, 10, "dense")]
        result = partition_sporadic(tasks, 1, order=TaskOrder.DENSITY)
        assert result.assignment[0][0].name == "dense"

    def test_utilization_order(self):
        tasks = [_spor(1, 10, 10, "light"), _spor(5, 10, 10, "heavy")]
        result = partition_sporadic(tasks, 1, order=TaskOrder.UTILIZATION)
        assert result.assignment[0][0].name == "heavy"


class TestFitStrategies:
    def test_first_fit_prefers_low_index(self):
        result = partition_sporadic([_spor(1, 5, 10)], 3, fit=FitStrategy.FIRST_FIT)
        assert result.assignment[0] and not result.assignment[1]

    def test_worst_fit_balances(self):
        tasks = [_spor(1, 5, 10, "a"), _spor(1, 5, 10, "b")]
        result = partition_sporadic(tasks, 2, fit=FitStrategy.WORST_FIT)
        assert result.used_processors == 2

    def test_best_fit_packs(self):
        tasks = [_spor(1, 5, 10, "a"), _spor(1, 10, 10, "b")]
        result = partition_sporadic(tasks, 2, fit=FitStrategy.BEST_FIT)
        assert result.used_processors == 1


class TestAdmissionTests:
    def test_density_admission_conservative(self, rng):
        # Density acceptance implies DBF* acceptance (per bucket).
        for _ in range(20):
            tasks = [
                _spor(
                    float(rng.uniform(0.2, 1.5)),
                    float(rng.uniform(2, 8)),
                    float(rng.uniform(8, 20)),
                    name=f"t{i}",
                )
                for i in range(6)
            ]
            dens = partition_sporadic(tasks, 3, admission=AdmissionTest.DENSITY)
            if dens.success:
                for bucket in dens.assignment:
                    assert edf_approx_test(list(bucket))

    def test_exact_admission_accepts_more(self):
        tasks = [_spor(2, 2, 100, "a"), _spor(2, 4, 100, "b")]
        approx = partition_sporadic(tasks, 1, admission=AdmissionTest.DBF_APPROX)
        exact = partition_sporadic(tasks, 1, admission=AdmissionTest.DBF_EXACT)
        assert not approx.success
        assert exact.success


class TestPartitionDagTasks:
    def test_high_density_input_rejected(self):
        task = SporadicDAGTask(DAG.independent([4] * 4), 8, 10, name="hd")
        with pytest.raises(AnalysisError, match="high-density"):
            partition([task], 4)

    def test_names_autogenerated(self):
        result = partition([_dag_task(1, 4, 10)], 1)
        assert result.success
        assert result.assignment[0][0].name == "task#0"
        assert "task#0" in result.dag_tasks

    def test_named_tasks_mapped_back(self):
        task = _dag_task(1, 4, 10, name="mine")
        result = partition([task], 1)
        assert result.dag_tasks["mine"] is task

    def test_sequentialisation_uses_volume(self, fig1_task):
        result = partition([fig1_task], 1)
        sporadic = result.assignment[0][0]
        assert sporadic.wcet == fig1_task.volume


_SHARD_TESTS = (AdmissionTest.DBF_APPROX, AdmissionTest.DBF_APPROX_ALL_POINTS)


def _full_scan_counts(tasks, processors, admission):
    """Processors that fit each first-fit placement, counted by a full scan."""
    probe = (
        ShardState.fits_at_deadline
        if admission is AdmissionTest.DBF_APPROX
        else ShardState.fits_all_points
    )
    shards = [ShardState() for _ in range(processors)]
    counts = []
    ranked = sorted(range(len(tasks)), key=lambda i: (tasks[i].deadline, i))
    for rank, i in enumerate(ranked):
        fitting = [k for k in range(processors) if probe(shards[k], tasks[i])]
        counts.append(len(fitting))
        if not fitting:
            break
        shards[fitting[0]].add(tasks[i], rank)
    return counts


class TestFirstFitScan:
    """First-fit stops at the first fit unless the candidate count is read."""

    @settings(max_examples=150, deadline=None)
    @given(
        tasks=constrained_sets(max_tasks=8),
        processors=st.integers(min_value=1, max_value=5),
        admission=st.sampled_from(_SHARD_TESTS),
    )
    def test_trace_counts_every_fitting_processor(
        self, tasks, processors, admission
    ):
        plain = partition_sporadic(tasks, processors, admission=admission)
        with tracing() as ctx:
            traced = partition_sporadic(tasks, processors, admission=admission)
        assert traced == plain
        assert traced.assignment == plain.assignment
        assert [a.candidates for a in ctx.events_of(PartitionAttempt)] == (
            _full_scan_counts(tasks, processors, admission)
        )

    @pytest.mark.parametrize("admission", _SHARD_TESTS)
    def test_debug_line_counts_every_fitting_processor(self, caplog, admission):
        tasks = [_spor(1, 10, 10, name=f"t{i}") for i in range(2)]
        with caplog.at_level(logging.DEBUG, logger="repro.core.partition"):
            result = partition_sporadic(tasks, 3, admission=admission)
        assert result.assignment[0] == tuple(tasks)
        lines = [r.getMessage() for r in caplog.records]
        assert any("(3/3 candidates)" in line for line in lines), lines
