"""Unit tests for repro.analysis.speedup (Example 2 / Theorem 1 machinery)
and the speed view its FEDCONS search probes through."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, ModelError, ReproError
from repro.analysis.speedup import (
    empirical_speedup_factor,
    example2_required_speed,
    example2_system,
    minimum_accepting_speed,
    minimum_fedcons_speed,
    theorem1_bound,
)
from repro.core.cache import caches, caching
from repro.core.fedcons import _span_within, fedcons, fedcons_accepts
from repro.core.kernels import CompiledDAG, compile_dag
from repro.core.list_scheduling import PRIORITY_ORDERS
from repro.generation.adversarial import chen_gadget
from repro.generation.tasksets import SystemConfig, generate_system
from repro.model.dag import DAG
from repro.model.task import SporadicDAGTask
from repro.model.taskset import TaskSystem
from repro.obs.metrics import collecting


class TestTheorem1Bound:
    def test_values(self):
        assert theorem1_bound(1) == 2.0
        assert theorem1_bound(2) == 2.5
        assert theorem1_bound(4) == 2.75

    def test_approaches_three(self):
        assert theorem1_bound(10**6) == pytest.approx(3.0, abs=1e-5)

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            theorem1_bound(0)


class TestExample2:
    def test_structure(self):
        system = example2_system(5)
        assert len(system) == 5
        assert system.total_utilization == pytest.approx(1.0)
        for task in system:
            assert task.span == 1 and task.deadline == 1 and task.period == 5

    def test_invalid_n(self):
        with pytest.raises(AnalysisError):
            example2_system(0)

    def test_required_speed_single_processor(self):
        assert example2_required_speed(10, 1) == 10

    def test_required_speed_multiprocessor(self):
        assert example2_required_speed(10, 5) == 2

    def test_required_speed_floor_one(self):
        assert example2_required_speed(2, 8) == 1.0

    def test_capacity_augmentation_unbounded(self):
        # For any fixed bound b, some n defeats it: required speed n > b
        # while the Definition-2 premises hold at every n.
        for b in (2, 5, 10):
            n = b * 2
            system = example2_system(n)
            assert system.total_utilization <= 1 + 1e-9
            assert all(t.span <= t.deadline for t in system)
            assert example2_required_speed(n, 1) > b


class TestMinimumFedconsSpeed:
    def test_exactly_one_for_saturating_system(self):
        # One task, one processor, needs the full processor.
        system = TaskSystem(
            [SporadicDAGTask(DAG.single_vertex(10), 10, 10, name="x")]
        )
        speed = minimum_fedcons_speed(system, 1, tolerance=1e-4)
        assert speed == pytest.approx(1.0, abs=1e-3)

    def test_below_one_for_light_system(self):
        system = TaskSystem(
            [SporadicDAGTask(DAG.single_vertex(1), 10, 10, name="x")]
        )
        speed = minimum_fedcons_speed(system, 1, tolerance=1e-4)
        assert speed == pytest.approx(0.1, abs=1e-2)

    def test_example2_matches_analytic(self):
        for n in (2, 4, 8):
            system = example2_system(n)
            assert minimum_fedcons_speed(system, 1, tolerance=1e-4) == pytest.approx(
                n, rel=1e-3
            )

    def test_acceptance_at_returned_speed(self, rng):
        cfg = SystemConfig(tasks=5, processors=4, normalized_utilization=0.6)
        for _ in range(5):
            system = generate_system(cfg, rng)
            speed = minimum_fedcons_speed(system, 4, tolerance=1e-3)
            if math.isfinite(speed):
                assert fedcons(system.scaled(speed * 1.01), 4).success

    def test_out_of_reach_returns_inf(self):
        # len 10 > D 8 needs speed >= 1.25; with max_speed below that the
        # search reports infinity.
        system = TaskSystem(
            [SporadicDAGTask(DAG.chain([5, 5]), 8, 20, name="x")]
        )
        assert minimum_fedcons_speed(system, 4, max_speed=1.2) == math.inf

    def test_structural_fix_by_speed(self):
        # The same system becomes schedulable once speed clears len/D.
        system = TaskSystem(
            [SporadicDAGTask(DAG.chain([5, 5]), 8, 20, name="x")]
        )
        speed = minimum_fedcons_speed(system, 4, tolerance=1e-4)
        assert speed == pytest.approx(1.25, rel=1e-3)


class TestEmpiricalFactor:
    def test_example2_factor_is_one(self):
        assert empirical_speedup_factor(example2_system(6), 1) == pytest.approx(
            1.0, rel=1e-2
        )

    def test_random_systems_within_reason(self, rng):
        cfg = SystemConfig(tasks=4, processors=4, normalized_utilization=0.4)
        for _ in range(5):
            system = generate_system(cfg, rng)
            factor = empirical_speedup_factor(system, 4, tolerance=1e-2)
            assert factor >= 1.0 - 1e-2
            # Far looser than Theorem 1 to keep the test robust; the bench
            # tracks the actual distribution.
            assert factor <= 2 * theorem1_bound(4)


# ---------------------------------------------------------------------------
# The speed view: fedcons_accepts and DAG.scaled_volume
# ---------------------------------------------------------------------------

#: WCETs with rounding in every sum, plus extremes whose quotients underflow
#: to 0 or overflow to inf at extreme speeds.
_float_wcets = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3), st.sampled_from([1e-300, 1e300])
)
_speeds = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([math.inf, math.nan, 1e-300, 1e300, 1e-30, 1e30]),
)


@st.composite
def float_dags(draw, max_vertices: int = 8) -> DAG:
    """A DAG with float WCETs, inserted in shuffled order, built from a
    shuffled edge list; half of them are chains, whose span is the volume
    up to rounding."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    order = draw(st.permutations(range(n)))
    weights = draw(st.lists(_float_wcets, min_size=n, max_size=n))
    if draw(st.booleans()):
        edges = [(i, i + 1) for i in range(n - 1)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        edges = [p for p, keep in zip(pairs, mask) if keep]
    edges = draw(st.permutations(edges))
    return DAG(dict(zip(order, weights)), edges)


class TestScaledVolume:
    @settings(max_examples=300, deadline=None)
    @given(dag=float_dags(), speed=_speeds)
    def test_equals_the_scaled_copys_volume(self, dag, speed):
        task = SporadicDAGTask(dag, 1.0, 1.0)
        try:
            expected = task.scaled(speed).volume
        except ModelError as exc:
            with pytest.raises(ModelError) as raised:
                dag.scaled_volume(speed)
            assert str(raised.value) == str(exc)
            return
        assert dag.scaled_volume(speed).hex() == expected.hex()

    @pytest.mark.parametrize(
        "wcets, speed",
        [
            ({0: 1.0, 1: 1e-300}, 1e30),  # underflow to 0.0
            ({0: 1.0, 1: 1e300}, 1e-10),  # overflow to inf
            ({0: 1.0, 1: 2.0}, math.nan),  # NaN
            ({0: 1.0, 1: 2.0}, math.inf),  # every quotient 0.0
            ({0: 1.0, 1: 2.0}, 0.0),  # not a speed
        ],
    )
    def test_fedcons_accepts_raises_the_scaled_copys_error(self, wcets, speed):
        system = TaskSystem([
            SporadicDAGTask(DAG({0: 1.0}), 10.0, 10.0, name="first"),
            SporadicDAGTask(DAG(wcets, [(0, 1)]), 10.0, 10.0, name="bad"),
        ])
        with pytest.raises(ModelError) as scaled:
            system.scaled(speed)
        with pytest.raises(ModelError) as viewed:
            fedcons_accepts(system, 2, speed)
        assert str(viewed.value) == str(scaled.value)


class TestSpanBound:
    @settings(max_examples=300, deadline=None)
    @given(dag=float_dags(), speed=st.floats(min_value=1e-3, max_value=1e3))
    def test_never_skips_a_span_over_the_deadline(self, dag, speed):
        scaled = dag.scaled(speed)
        volume = dag.scaled_volume(speed)
        span = scaled.longest_chain_length
        candidates = {span, volume}
        for point in (span, volume):
            candidates.add(math.nextafter(point, math.inf))
            candidates.add(math.nextafter(point, 0.0))
        for deadline in candidates:
            if _span_within(volume, len(dag), deadline):
                assert span <= deadline, (volume.hex(), span.hex())
        # The bound proves every deadline a little above the volume.
        assert _span_within(volume, len(dag), volume * (1.0 + 2.0**-20))

    def test_rounding_only_infeasibility_is_still_rejected(self):
        # A chain whose vertices are inserted out of chain order: the chain
        # DP can round above the volume by 2 ulps or more.  With D one ulp
        # under the scaled span the task is low-density yet infeasible, and
        # the view must run the DP to see it.
        rng = random.Random(5)
        for _ in range(100_000):
            n = rng.randint(2, 6)
            weights = [rng.uniform(0.1, 10.0) for _ in range(n)]
            order = rng.sample(range(n), n)
            dag = DAG({v: weights[v] for v in order},
                      [(i, i + 1) for i in range(n - 1)])
            speed = rng.uniform(0.3, 3.0)
            volume = dag.scaled_volume(speed)
            deadline = math.nextafter(dag.scaled(speed).longest_chain_length, 0)
            if volume < deadline:
                break
        else:
            pytest.fail("no chain rounds its span 2 ulps above its volume")
        system = TaskSystem([SporadicDAGTask(dag, deadline, 2 * deadline)])
        assert not _span_within(volume, len(dag), deadline)
        oracle = fedcons(system.scaled(speed), 1)
        assert oracle.reason.value == "structurally_infeasible"
        assert oracle.failed_task.is_low_density
        assert fedcons_accepts(system, 1, speed) is False


@st.composite
def float_systems(draw):
    tasks = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        dag = draw(float_dags(max_vertices=6))
        deadline = dag.longest_chain_length * draw(
            st.floats(min_value=0.5, max_value=6.0)
        )
        period = deadline * draw(st.floats(min_value=1.0, max_value=3.0))
        tasks.append(SporadicDAGTask(dag, deadline, period, name=f"t{i}"))
    return TaskSystem(tasks)


class TestFedconsAccepts:
    @settings(max_examples=150, deadline=None)
    @given(
        system=float_systems(),
        processors=st.integers(min_value=1, max_value=6),
        speed=st.floats(min_value=0.05, max_value=20.0),
    )
    def test_matches_fedcons_on_the_scaled_system(
        self, system, processors, speed
    ):
        # A DAG mixing 1e300 and 1e-3 jobs can make List Scheduling raise
        # (a slot whose end rounds to its start); both paths must then
        # raise the same error.
        def outcome(call):
            try:
                return call()
            except ReproError as exc:
                return type(exc), str(exc)

        expected = outcome(
            lambda: fedcons(system.scaled(speed), processors).success
        )
        assert outcome(
            lambda: fedcons_accepts(system, processors, speed)
        ) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_search_matches_the_search_over_scaled_copies(self, seed):
        config = SystemConfig(
            tasks=6, processors=4, normalized_utilization=0.3 + 0.1 * seed
        )
        system = generate_system(config, seed)
        oracle = minimum_accepting_speed(
            lambda scaled: fedcons(scaled, 4).success, system
        )
        assert minimum_fedcons_speed(system, 4) == oracle

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gadget_search_matches(self, k):
        gadget = chen_gadget(k)
        m = gadget.processors
        oracle = minimum_accepting_speed(
            lambda scaled: fedcons(scaled, m).success, gadget.system
        )
        assert minimum_fedcons_speed(gadget.system, m) == oracle

    def test_scales_no_low_density_dag(self, monkeypatch):
        calls = []
        original = DAG.scaled

        def spy(dag, speed):
            calls.append(len(dag))
            return original(dag, speed)

        monkeypatch.setattr(DAG, "scaled", spy)
        system = TaskSystem([
            SporadicDAGTask(DAG.chain([1.0, 2.0]), 10.0, 20.0, name="low"),
            SporadicDAGTask(DAG.independent([3.0] * 4), 4.0, 8.0, name="high"),
        ])
        assert fedcons_accepts(system, 4, 1.5)
        assert calls == [4]  # only the high-density task's DAG

    def test_counts_every_probe_as_a_fedcons_invocation(self):
        system = example2_system(4)
        with collecting() as registry:
            fedcons_accepts(system, 1, 2.0)
            fedcons_accepts(system, 1, 0.5)
        assert registry.counter("fedcons_invocations") == 2
        assert "fedcons.total_seconds" in registry.snapshot()["timers"]


class TestRescaledCompiledDAG:
    @settings(max_examples=200, deadline=None)
    @given(dag=float_dags(), speed=st.floats(min_value=1e-2, max_value=1e2))
    def test_equals_a_fresh_compile_field_by_field(self, dag, speed):
        scaled = dag.scaled(speed)
        derived = compile_dag(scaled)
        fresh = CompiledDAG(scaled)
        assert derived.vertices == fresh.vertices
        assert derived.index == fresh.index
        assert [w.hex() for w in derived.wcet] == [w.hex() for w in fresh.wcet]
        assert derived.succ_indptr == fresh.succ_indptr
        assert derived.succ_indices == fresh.succ_indices
        assert derived.indegree == fresh.indegree
        assert [r.hex() for r in derived.upward_rank()] == [
            r.hex() for r in fresh.upward_rank()
        ]
        for order in PRIORITY_ORDERS:
            assert derived.priority(order) == fresh.priority(order)
        # The structure is the original's, by reference.
        original = compile_dag(dag)
        assert derived.succ_indices is original.succ_indices
        assert derived.indegree is original.indegree
        assert derived.index is original.index

    def test_scaled_copies_skip_the_digest_and_the_cache(self, diamond_dag):
        with caching() as active:
            active.reset_counters()
            compile_dag(diamond_dag)
            twice = diamond_dag.scaled(2.0).scaled(3.0)
            compile_dag(diamond_dag.scaled(2.0))
            compile_dag(twice)
            assert caches.compiled.hits + caches.compiled.misses == 1
            assert twice._digest is None
            assert twice._origin is diamond_dag
