"""Unit tests for repro.model.serialization."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.model import (
    DAG,
    SporadicDAGTask,
    TaskSystem,
    dag_from_dict,
    dag_to_dict,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
    task_from_dict,
    task_to_dict,
)
from repro.model.serialization import _decode_vertex


def _int_or_str(text):
    """The reference decoding: an int where int() parses, else unchanged."""
    try:
        return int(text)
    except (TypeError, ValueError):
        return text


class TestDecodeVertex:
    @pytest.mark.parametrize(
        "text",
        ["0", "-3", " 4 ", "+5", "1_000", "\u0663", "\u00b2", "\u216b",
         "\u01c51", "mProjectPP00", "v1", "", "+", 7],
    )
    def test_matches_int_or_str(self, text):
        decoded = _decode_vertex(text)
        reference = _int_or_str(text)
        assert decoded == reference
        assert type(decoded) is type(reference)


#: Ids that int() may read alike: small numbers written with leading zeros,
#: signs, spaces and underscores, a non-ASCII digit, beside names.
_ID_TEXT = st.one_of(
    st.builds(
        str.format,
        st.sampled_from(["{}", "0{}", " {}", "+{}", "-{}", "1{}", "1_{}", "x{}"]),
        st.integers(0, 3),
    ),
    st.sampled_from(["\u0663", "\u00b2", "_", "+"]),
)
_VERTEX_ID = st.one_of(st.integers(-3, 13), _ID_TEXT)


class TestStrictCodec:
    @pytest.mark.parametrize("text", ["01", " 1", "+1", "1_0", "\u0663", "-0"])
    def test_non_canonical_wcets_key_refused(self, text):
        with pytest.raises(ModelError, match=re.escape(repr(text))):
            dag_from_dict({"wcets": {"1": 1.0, text: 2.0}, "edges": []})

    @pytest.mark.parametrize("endpoint", ["01", 1, 1.0, True, None])
    def test_edge_endpoint_must_be_a_sent_id(self, endpoint):
        with pytest.raises(ModelError):
            dag_from_dict({
                "wcets": {"1": 1.0, "2": 1.0}, "edges": [[endpoint, "2"]],
            })

    @pytest.mark.parametrize("wcets", [
        {1: 1.0, "1": 2.0}, {"07": 1.0}, {True: 1.0},
    ], ids=["int_beside_digit_string", "leading_zero", "bool"])
    def test_encoder_refuses_ids_that_do_not_round_trip(self, wcets):
        with pytest.raises(ModelError):
            dag_to_dict(DAG(wcets))

    @given(
        ids=st.lists(_VERTEX_ID, min_size=1, max_size=6, unique=True),
        data=st.data(),
    )
    def test_task_round_trips_or_is_refused(self, ids, data):
        index = st.integers(0, len(ids) - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), max_size=6))
        edges = [(ids[i], ids[j]) for i, j in pairs if i < j]  # acyclic
        task = SporadicDAGTask(
            dag=DAG({v: 1.0 + k for k, v in enumerate(ids)}, edges),
            deadline=50.0, period=50.0, name="t",
        )
        try:
            encoded = task_to_dict(task)
        except ModelError:
            return
        back = task_from_dict(json.loads(json.dumps(encoded)))
        assert back == task
        assert [type(v) for v in back.dag.wcets] == [type(v) for v in ids]

    @given(texts=st.lists(_ID_TEXT, min_size=1, max_size=6, unique=True),
           data=st.data())
    def test_sent_ids_never_merge(self, texts, data):
        endpoint = st.one_of(st.sampled_from(texts), _ID_TEXT)
        edges = data.draw(st.lists(
            st.tuples(endpoint, endpoint), max_size=6, unique=True
        ))
        wire = {
            "wcets": {text: 1.0 for text in texts},
            "edges": [list(edge) for edge in edges],
        }
        try:
            dag = dag_from_dict(wire)
        except ModelError:
            return
        assert len(dag) == len(texts)
        assert len(dag.edges) == len(edges)


class TestDagRoundTrip:
    def test_roundtrip(self, diamond_dag):
        assert dag_from_dict(dag_to_dict(diamond_dag)) == diamond_dag

    def test_string_vertices_roundtrip(self):
        dag = DAG({"a": 1, "b": 2}, [("a", "b")])
        assert dag_from_dict(dag_to_dict(dag)) == dag

    def test_dict_is_json_compatible(self, diamond_dag):
        json.dumps(dag_to_dict(diamond_dag))

    def test_malformed_rejected(self):
        with pytest.raises(ModelError, match="malformed"):
            dag_from_dict({"edges": []})


class TestTaskRoundTrip:
    def test_roundtrip(self, fig1_task):
        restored = task_from_dict(task_to_dict(fig1_task))
        assert restored == fig1_task
        assert restored.name == fig1_task.name

    def test_malformed_rejected(self):
        with pytest.raises(ModelError, match="malformed"):
            task_from_dict({"deadline": 1})


class TestSystemRoundTrip:
    def test_roundtrip(self, mixed_system):
        assert system_from_dict(system_to_dict(mixed_system)) == mixed_system

    def test_version_checked(self, mixed_system):
        data = system_to_dict(mixed_system)
        data["format_version"] = 999
        with pytest.raises(ModelError, match="version"):
            system_from_dict(data)

    def test_missing_version_rejected(self):
        with pytest.raises(ModelError, match="version"):
            system_from_dict({"tasks": []})

    def test_file_roundtrip(self, mixed_system, tmp_path):
        path = tmp_path / "system.json"
        save_system(mixed_system, path)
        assert load_system(path) == mixed_system

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ModelError, match="not valid JSON"):
            load_system(path)

    def test_preserves_derived_quantities(self, mixed_system, tmp_path):
        path = tmp_path / "system.json"
        save_system(mixed_system, path)
        restored = load_system(path)
        assert restored.total_utilization == pytest.approx(
            mixed_system.total_utilization
        )
        assert [t.density for t in restored] == pytest.approx(
            [t.density for t in mixed_system]
        )
