"""Tier-2 kernel guarantees: bracketed mu-search, the kernel switch, and
the multi-core plumbing.

Everything here enforces the same contract as :mod:`tests.test_kernels`:
the bracketed search is a *pure speedup* -- identical processor counts,
identical canonical ``attempts``, identical schedules, down to the last
float.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.engine as engine_mod
from repro.core import kernels
from repro.core.cache import caching
from repro.core.kernels import KernelFlags, kernel_backend, use_kernels
from repro.errors import AnalysisError
from repro.generation.adversarial import chen_gadget
from repro.generation.pegasus import montage
from repro.model.dag import DAG
from repro.model.task import SporadicDAGTask
from repro.obs.metrics import collecting
from repro.parallel import available_cpus

from strategies import dag_tasks

minprocs_mod = __import__("repro.core.minprocs", fromlist=["minprocs"])
minprocs = minprocs_mod.minprocs


def _staircase_task(
    chain: int = 10, fringe: int = 60, name: str = "staircase"
) -> SporadicDAGTask:
    """Serial chain feeding a wide fringe, deadline just past the span.

    All fringe vertices depend on the chain's last node and the deadline
    leaves room for exactly one fringe round, so the minimal cluster is
    ``fringe`` processors while the density lower bound stays tiny -- the
    widest mu range a linear scan can be made to walk.
    """
    wcets: dict[int, float] = {i: 4.0 for i in range(chain)}
    edges = [(i, i + 1) for i in range(chain - 1)]
    for j in range(fringe):
        v = chain + j
        wcets[v] = 0.5
        edges.append((chain - 1, v))
    dag = DAG(wcets, edges)
    deadline = chain * 4.0 + 0.5 + 0.05
    return SporadicDAGTask(dag, deadline, deadline * 2.0, name=name)


def _result_tuple(result):
    if result is None:
        return None
    return (result.processors, result.attempts, result.schedule.slots)


def _run_both_strategies(task, budget, order="longest_path"):
    saved = minprocs_mod.MU_SEARCH
    try:
        minprocs_mod.MU_SEARCH = "linear"
        linear = minprocs(task, budget, order=order)
        minprocs_mod.MU_SEARCH = "bisect"
        bisect = minprocs(task, budget, order=order)
    finally:
        minprocs_mod.MU_SEARCH = saved
    return linear, bisect


class TestMuSearchEquivalence:
    """Bracketed mu-search == Figure 3 linear scan, kernels on and off."""

    def test_staircase_identical_with_fewer_ls_runs(self):
        task = _staircase_task()
        with use_kernels(True):
            linear, bisect = _run_both_strategies(task, 1024)
        assert linear is not None
        assert _result_tuple(bisect) == _result_tuple(linear)
        # The linear scan probed every mu in the range; the bracket must
        # answer the same thing from logarithmically fewer LS runs.
        assert linear.ls_runs == linear.attempts
        assert linear.attempts > 16
        assert bisect.ls_runs < linear.ls_runs

    def test_staircase_identical_without_kernels(self):
        task = _staircase_task(chain=6, fringe=24)
        with use_kernels(False):
            linear, bisect = _run_both_strategies(task, 256)
        assert linear is not None
        assert _result_tuple(bisect) == _result_tuple(linear)
        assert bisect.ls_runs < linear.ls_runs

    @settings(max_examples=30, deadline=None)
    @given(task=dag_tasks(), budget=st.integers(min_value=1, max_value=64))
    def test_random_tasks_identical(self, task, budget):
        for enabled in (True, False):
            with use_kernels(enabled):
                linear, bisect = _run_both_strategies(task, budget)
            assert _result_tuple(bisect) == _result_tuple(linear)

    def test_pegasus_montage_identical(self):
        rng = np.random.default_rng(7)
        for i, projections in enumerate((3, 6, 9)):
            dag = montage(projections, rng)
            span = dag.longest_chain_length
            task = SporadicDAGTask(
                dag, span * 1.05, span * 2.0, name=f"montage{i}"
            )
            with use_kernels(True):
                linear, bisect = _run_both_strategies(task, 256)
            assert _result_tuple(bisect) == _result_tuple(linear)

    def test_chen_gadget_identical(self):
        for k in (2, 3):
            instance = chen_gadget(k)
            for task in instance.system:
                with use_kernels(True):
                    linear, bisect = _run_both_strategies(
                        task, instance.processors
                    )
                assert _result_tuple(bisect) == _result_tuple(linear)

    def test_small_range_degenerates_to_linear(self):
        # available - start + 1 < BISECT_MIN_RANGE takes the Figure 3 scan
        # verbatim even under MU_SEARCH="bisect": every probe actually runs.
        task = _staircase_task(chain=4, fringe=8, name="small")
        saved = minprocs_mod.MU_SEARCH
        try:
            minprocs_mod.MU_SEARCH = "bisect"
            with use_kernels(True):
                result = minprocs(task, 8)
        finally:
            minprocs_mod.MU_SEARCH = saved
        assert result is not None
        assert result.processors == 8
        assert result.ls_runs == result.attempts

    def test_attempts_canonical_ls_runs_zero_on_cache_hit(self):
        task = _staircase_task(chain=6, fringe=24)
        with use_kernels(True), caching():
            first = minprocs(task, 256)
            cached = minprocs(task, 256)
        assert first.ls_runs > 0
        assert cached.ls_runs == 0
        assert (cached.processors, cached.attempts) == (
            first.processors, first.attempts,
        )
        assert cached.schedule.slots == first.schedule.slots


class TestAnomalyFallback:
    """A non-monotone makespan pair among the observed probes must force
    the verbatim Figure 3 linear replay."""

    def test_injected_anomaly_falls_back_to_linear(self, monkeypatch):
        task = _staircase_task(chain=6, fringe=24)
        with use_kernels(True):
            reference, _ = _run_both_strategies(task, 256)
        assert reference is not None

        real_ls_run = kernels.ls_run
        seen: list[tuple[int, float]] = []

        def warped(compiled, processors, prio):
            makespan, payload = real_ls_run(compiled, processors, prio)
            if len(seen) == 0:
                seen.append((processors, makespan))
            elif len(seen) == 1 and processors != seen[0][0]:
                # Report a makespan *increase* on the second distinct mu --
                # the Graham anomaly shape the guard must catch.  The probe
                # stays non-fitting (it only grows), so the verdict stream
                # the linear replay sees is unchanged.
                makespan = max(makespan, seen[0][1] + 1.0)
                seen.append((processors, makespan))
            return makespan, payload

        monkeypatch.setattr(kernels, "ls_run", warped)
        saved = minprocs_mod.MU_SEARCH
        minprocs_mod.MU_SEARCH = "bisect"
        try:
            with use_kernels(True), collecting() as m:
                result = minprocs(task, 256)
        finally:
            minprocs_mod.MU_SEARCH = saved
        assert m.counter("minprocs_anomaly_fallbacks") == 1
        # The fallback answers exactly what the clean linear scan answers.
        assert (result.processors, result.attempts) == (
            reference.processors, reference.attempts,
        )
        assert result.schedule.slots == reference.schedule.slots


class TestKernelBackendFlags:
    def test_env_parsing(self, monkeypatch):
        # kernel_backend() reads the module-level switch, so each case
        # installs the freshly parsed flags there.
        monkeypatch.setenv("REPRO_KERNELS", "jit")
        monkeypatch.setattr(kernels, "flags", KernelFlags())
        assert kernels.flags.enabled and kernel_backend() == "numpy"
        monkeypatch.setenv("REPRO_KERNELS", "0")
        monkeypatch.setattr(kernels, "flags", KernelFlags())
        assert not kernels.flags.enabled and kernel_backend() == "python"
        monkeypatch.setenv("REPRO_KERNELS", "1")
        monkeypatch.setattr(kernels, "flags", KernelFlags())
        assert kernels.flags.enabled and kernel_backend() == "numpy"
        monkeypatch.delenv("REPRO_KERNELS")
        monkeypatch.setattr(kernels, "flags", KernelFlags())
        assert kernels.flags.enabled and kernel_backend() == "numpy"

class TestAvailableCpus:
    def test_positive(self):
        count = available_cpus()
        assert isinstance(count, int) and count >= 1

    def test_prefers_process_cpu_count(self, monkeypatch):
        monkeypatch.setattr(
            os, "process_cpu_count", lambda: 7, raising=False
        )
        assert available_cpus() == 7

    def test_affinity_error_falls_back(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)

        def broken(pid):
            raise OSError("no affinity")

        monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpus() == 3

    def test_effective_jobs_resolution(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "available_cpus", lambda: 5)
        assert engine_mod.effective_jobs(None) == 5
        assert engine_mod.effective_jobs(0) == 5
        assert engine_mod.effective_jobs(2) == 2
        with pytest.raises(AnalysisError):
            engine_mod.effective_jobs(-1)
