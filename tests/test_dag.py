"""Unit tests for repro.model.dag."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CycleError, ModelError
from repro.model.dag import DAG


class TestConstruction:
    def test_single_vertex(self):
        dag = DAG({0: 5.0})
        assert len(dag) == 1
        assert dag.volume == 5.0
        assert dag.longest_chain_length == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ModelError, match="at least one vertex"):
            DAG({})

    def test_zero_wcet_rejected(self):
        with pytest.raises(ModelError, match="positive"):
            DAG({0: 0})

    def test_negative_wcet_rejected(self):
        with pytest.raises(ModelError, match="positive"):
            DAG({0: -1})

    def test_nan_wcet_rejected(self):
        with pytest.raises(ModelError):
            DAG({0: float("nan")})

    def test_infinite_wcet_rejected(self):
        with pytest.raises(ModelError):
            DAG({0: float("inf")})

    def test_boolean_wcet_rejected(self):
        with pytest.raises(ModelError, match="number"):
            DAG({0: True})

    def test_string_wcet_rejected(self):
        with pytest.raises(ModelError):
            DAG({0: "3"})

    def test_edge_unknown_source(self):
        with pytest.raises(ModelError, match="unknown vertex"):
            DAG({0: 1}, [(9, 0)])

    def test_edge_unknown_target(self):
        with pytest.raises(ModelError, match="unknown vertex"):
            DAG({0: 1}, [(0, 9)])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError, match="self-loop"):
            DAG({0: 1}, [(0, 0)])

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            DAG({0: 1, 1: 1}, [(0, 1), (1, 0)])

    def test_long_cycle_rejected(self):
        with pytest.raises(CycleError):
            DAG({0: 1, 1: 1, 2: 1}, [(0, 1), (1, 2), (2, 0)])

    def test_duplicate_edges_collapsed(self):
        dag = DAG({0: 1, 1: 1}, [(0, 1), (0, 1)])
        assert dag.edges == ((0, 1),)

    def test_string_vertex_ids(self):
        dag = DAG({"a": 1, "b": 2}, [("a", "b")])
        assert dag.wcet("b") == 2
        assert dag.longest_chain_length == 3


class TestFactories:
    def test_chain(self):
        dag = DAG.chain([1, 2, 3])
        assert dag.volume == 6
        assert dag.longest_chain_length == 6
        assert dag.sources == (0,)
        assert dag.sinks == (2,)

    def test_independent(self):
        dag = DAG.independent([1, 2, 3])
        assert dag.volume == 6
        assert dag.longest_chain_length == 3
        assert len(dag.edges) == 0

    def test_fork_join(self):
        dag = DAG.fork_join([2, 2], source_wcet=1, sink_wcet=1)
        assert dag.volume == 6
        assert dag.longest_chain_length == 4
        assert len(dag.sources) == 1
        assert len(dag.sinks) == 1

    def test_fork_join_empty_branches_rejected(self):
        with pytest.raises(ModelError):
            DAG.fork_join([])

    def test_single_vertex_factory(self):
        dag = DAG.single_vertex(3.5, vertex="only")
        assert dag.wcet("only") == 3.5

    def test_networkx_roundtrip(self, diamond_dag):
        back = DAG.from_networkx(diamond_dag.to_networkx())
        assert back == diamond_dag

    def test_from_networkx_missing_wcet(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_node(0)
        with pytest.raises(ModelError, match="lacks attribute"):
            DAG.from_networkx(g)


class TestStructure:
    def test_topological_order(self, diamond_dag):
        order = diamond_dag.vertices
        pos = {v: i for i, v in enumerate(order)}
        for u, v in diamond_dag.edges:
            assert pos[u] < pos[v]

    def test_volume(self, diamond_dag):
        assert diamond_dag.volume == 7

    def test_longest_chain_length(self, diamond_dag):
        assert diamond_dag.longest_chain_length == 5  # 0 -> 2 -> 3

    def test_longest_chain_vertices(self, diamond_dag):
        chain = diamond_dag.longest_chain()
        assert chain == (0, 2, 3)
        assert diamond_dag.chain_length(chain) == 5

    def test_chain_length_validates(self, diamond_dag):
        with pytest.raises(ModelError, match="not an edge"):
            diamond_dag.chain_length([1, 2])

    def test_chain_length_empty(self, diamond_dag):
        assert diamond_dag.chain_length([]) == 0.0

    def test_successors_predecessors(self, diamond_dag):
        assert set(diamond_dag.successors(0)) == {1, 2}
        assert set(diamond_dag.predecessors(3)) == {1, 2}
        assert diamond_dag.predecessors(0) == ()
        assert diamond_dag.successors(3) == ()

    def test_unknown_vertex_queries(self, diamond_dag):
        for method in ("wcet", "successors", "predecessors", "ancestors",
                       "descendants"):
            with pytest.raises(ModelError, match="unknown vertex"):
                getattr(diamond_dag, method)(99)

    def test_sources_sinks(self, diamond_dag):
        assert diamond_dag.sources == (0,)
        assert diamond_dag.sinks == (3,)

    def test_ancestors(self, diamond_dag):
        assert diamond_dag.ancestors(3) == {0, 1, 2}
        assert diamond_dag.ancestors(0) == frozenset()

    def test_descendants(self, diamond_dag):
        assert diamond_dag.descendants(0) == {1, 2, 3}
        assert diamond_dag.descendants(3) == frozenset()

    def test_contains(self, diamond_dag):
        assert 0 in diamond_dag
        assert 99 not in diamond_dag

    def test_equality_and_hash(self, diamond_dag):
        other = DAG({0: 1, 1: 2, 2: 3, 3: 1}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert other == diamond_dag
        assert hash(other) == hash(diamond_dag)

    def test_inequality_different_wcets(self, diamond_dag):
        other = DAG({0: 9, 1: 2, 2: 3, 3: 1}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert other != diamond_dag

    def test_inequality_different_edges(self, diamond_dag):
        other = DAG({0: 1, 1: 2, 2: 3, 3: 1}, [(0, 1), (1, 3), (2, 3)])
        assert other != diamond_dag

    def test_repr_mentions_metrics(self, diamond_dag):
        text = repr(diamond_dag)
        assert "vol=7" in text and "len=5" in text


class TestTimes:
    def test_earliest_start_times(self, diamond_dag):
        est = diamond_dag.earliest_start_times()
        assert est == {0: 0, 1: 1, 2: 1, 3: 4}

    def test_latest_start_times(self, diamond_dag):
        lst = diamond_dag.latest_start_times(deadline=5)
        assert lst[3] == 4
        assert lst[2] == 1
        assert lst[0] == 0
        # Slack only on the short branch.
        assert lst[1] == 2

    def test_latest_start_infeasible_deadline(self, diamond_dag):
        with pytest.raises(ModelError, match="critical path"):
            diamond_dag.latest_start_times(deadline=4)

    def test_scaled(self, diamond_dag):
        fast = diamond_dag.scaled(2.0)
        assert fast.volume == pytest.approx(3.5)
        assert fast.longest_chain_length == pytest.approx(2.5)
        assert fast.edges == diamond_dag.edges

    def test_scaled_invalid(self, diamond_dag):
        with pytest.raises(ModelError):
            diamond_dag.scaled(0)

    def test_parallelism_profile(self, wide_dag):
        profile = wide_dag.parallelism_profile()
        assert (0.0, 6) in profile
        assert wide_dag.max_parallelism == 6

    def test_chain_max_parallelism_is_one(self, chain_dag):
        assert chain_dag.max_parallelism == 1

    def test_parallelism_profile_ends_at_zero(self, diamond_dag):
        profile = diamond_dag.parallelism_profile()
        assert profile[-1][1] == 0


# ---------------------------------------------------------------------------
# scaled() builds, slot for slot, what a rebuild from the edge list builds
# ---------------------------------------------------------------------------
def _rebuilt(dag: DAG, speed: float) -> DAG:
    """The reference scaled copy: a full rebuild from the edge list."""
    return DAG(
        {v: w / speed for v, w in dag._wcets.items()},
        [(u, v) for u, vs in dag._succ.items() for v in vs],
    )


def _generator_longest(dag: DAG) -> float:
    """The chain DP as a per-vertex ``max`` generator over predecessors."""
    finish = {}
    for v in dag._topo:
        best = max((finish[p] for p in dag._pred[v]), default=0.0)
        finish[v] = best + dag._wcets[v]
    return max(finish.values())


def _slots(dag: DAG) -> tuple:
    """Every structural slot, with order and exact float bits."""
    return (
        [(v, w.hex()) for v, w in dag._wcets.items()],
        list(dag._succ.items()),
        list(dag._pred.items()),
        dag._topo,
        dag._volume.hex(),
        dag._longest.hex(),
    )


_wcet_values = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3), st.sampled_from([1e-30, 1e30])
)
# The specials make some quotients underflow to 0, overflow to inf or be NaN.
_speeds = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([math.inf, math.nan, 1e-300, 1e300]),
)


@st.composite
def shuffled_dags(draw, max_vertices: int = 9) -> DAG:
    """A DAG whose WCET mapping is not in topological order, built from a
    shuffled edge list (so its predecessor order is the edge list's, not the
    successor walk's); edges run from lower to higher vertex number."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    order = draw(st.permutations(range(n)))
    weights = draw(st.lists(_wcet_values, min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([p for p, keep in zip(pairs, mask) if keep]))
    return DAG(dict(zip(order, weights)), edges)


def _assert_scaled_matches_rebuild(dag: DAG, speed: float) -> DAG | None:
    try:
        reference = _rebuilt(dag, speed)
    except ModelError as exc:
        with pytest.raises(ModelError) as raised:
            dag.scaled(speed)
        assert str(raised.value) == str(exc)
        return None
    scaled = dag.scaled(speed)
    assert _slots(scaled) == _slots(reference)
    assert scaled._longest.hex() == _generator_longest(scaled).hex()
    assert scaled == reference and scaled.digest() == reference.digest()
    return scaled


class TestScaled:
    @settings(max_examples=200, deadline=None)
    @given(dag=shuffled_dags(), first=_speeds, second=_speeds)
    def test_scaled_equals_rebuild_slot_by_slot(self, dag, first, second):
        assert dag._longest.hex() == _generator_longest(dag).hex()
        scaled = _assert_scaled_matches_rebuild(dag, first)
        if scaled is not None:
            _assert_scaled_matches_rebuild(scaled, second)

    def test_scaled_builds_the_rebuild_predecessor_order(self):
        # Vertex 2's predecessors are listed (1, 0) by the edge list but met
        # as (0, 1) by the walk over the successor map.
        dag = DAG({0: 1.0, 1: 2.0, 2: 3.0}, [(1, 2), (0, 2)])
        assert dag.predecessors(2) == (1, 0)
        assert dag.scaled(2.0).predecessors(2) == (0, 1)
        assert dag.scaled(2.0).predecessors(2) == _rebuilt(dag, 2.0).predecessors(2)

    @pytest.mark.parametrize(
        "wcets, speed",
        [
            ({0: 1.0, 1: 1e-300}, 1e30),  # underflow to 0.0
            ({0: 1.0, 1: 1e300}, 1e-10),  # overflow to inf
            ({0: 1.0, 1: 2.0}, math.nan),  # NaN
            ({0: 1.0, 1: 2.0}, math.inf),  # every quotient 0.0
        ],
    )
    def test_unrepresentable_wcet_raises_the_rebuild_error(self, wcets, speed):
        dag = DAG(wcets, [(0, 1)])
        with pytest.raises(ModelError) as rebuilt:
            _rebuilt(dag, speed)
        with pytest.raises(ModelError) as scaled:
            dag.scaled(speed)
        assert str(scaled.value) == str(rebuilt.value)
        assert "must be positive and finite" in str(scaled.value)
