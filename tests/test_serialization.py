"""Unit tests for repro.model.serialization."""

import json

import pytest

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
