"""Tests of the end-to-end benchmark: the comparison rule and a smoke run.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from compare import compare, verdict
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_clear_gain_is_improved():
    change = [v - 5.0 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "improved"
    assert verdict(PARENT, change, "higher", 0.1) == "unchanged"


def test_gain_inside_parent_spread_is_not_improved():
    parent = [90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 100.0, 97.0, 103.0, 100.0]
    change = [v - 2.0 for v in parent]
    assert verdict(parent, change, "lower", 0.25) == "unchanged"


def test_winning_fewer_than_nine_in_ten_pairs_is_not_improved():
    change = [v - 5.0 for v in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]]
    assert verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_worse_beyond_the_bound_is_regressed():
    change = [v * 1.15 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "regressed"
    assert verdict(PARENT, [v * 0.85 for v in PARENT], "higher", 0.1) == "regressed"


def test_worse_within_the_bound_is_unchanged():
    change = [v * 1.05 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 100.0, 95.0, 105.0, 100.0]
    change = [v * 1.02 for v in parent]
    assert verdict(parent, change, "lower", 0.1) == "unresolved"


def test_change_better_than_every_parent_run_resolves_a_wide_spread():
    # Skewed parent: its spread exceeds the bound and the change's gain, but
    # every change run beats every parent run.
    parent = [95.0, 96.0, 97.0, 98.0, 99.0, 100.0, 130.0, 140.0, 150.0, 160.0]
    change = [90.0 + i * 0.5 for i in range(10)]
    assert verdict(parent, change, "lower", 0.1) == "unchanged"
    assert verdict(parent, change + [99.5], "lower", 0.1) == "unresolved"


def test_unbounded_metric_regresses_only_by_the_pair_rule():
    assert verdict(PARENT, [v + 5.0 for v in PARENT], "lower", None) == "regressed"
    assert verdict(PARENT, [v + 0.1 for v in PARENT], "lower", None) == "unchanged"


def test_compare_pairs_runs_per_workload_and_metric():
    def runs(workload, values):
        return [{"workload": workload, "metrics": {"setup_s": v}} for v in values]

    rows = compare(
        runs("svc-fill", PARENT) + runs("batch-sizing", PARENT),
        runs("svc-fill", [v * 2 for v in PARENT]) + runs("batch-sizing", PARENT),
        SPEC,
    )
    outcomes = {(w, m): v for w, m, v, _ in rows}
    assert outcomes == {
        ("batch-sizing", "setup_s"): "unchanged",
        ("svc-fill", "setup_s"): "regressed",
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_the_benchmark_metrics(tmp_path, trace):
    """Every workload, smoke-sized: names, units and checks must hold."""
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--quick",
                "--history", str(tmp_path / "history.jsonl"),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
