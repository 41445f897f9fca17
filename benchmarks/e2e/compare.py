"""Run history and the parent-vs-change comparison rule.

Every benchmark run appends one summary line to a JSONL history file.
``run.py compare PARENT.jsonl CHANGE.jsonl`` judges each (metric, workload)
pairing of two such result sets:

* **improved** -- the change wins at least 9 in 10 of the runs paired in
  order (ties count for neither side) and its median beats the parent's by
  more than the parent's own interquartile range;
* **regressed** -- the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median); for a metric
  without a bound, the mirror image of *improved*;
* **unresolved** -- the parent's interquartile range is wider than the
  bound, so "no worse by more than the bound" cannot be shown, unless every
  run of the change beats every run of the parent;
* **unchanged** -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float | None,
) -> str:
    """Judge one (metric, workload) pairing; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p1, p_median, p3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    spread = p3 - p1
    gain = sign * (c_median - p_median)
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "improved"
    if bound is None:
        return "regressed" if losses >= 0.9 * len(pairs) and -gain > spread else "unchanged"
    if -gain > bound * abs(p_median):
        return "regressed"
    if spread > bound * abs(p_median):
        best_parent = max(sign * p for p in parent)
        if not all(sign * c > best_parent for c in change):
            return "unresolved"
    return "unchanged"


def load_history(path: Path) -> list[dict]:
    """Every run summary of a JSONL history file, in file order."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def append_history(path: Path, summary: dict) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(summary, separators=(",", ":")) + "\n")


def compare(
    parent: list[dict], change: list[dict], spec: dict
) -> list[tuple[str, str, str, dict]]:
    """``(workload, metric, verdict, numbers)`` rows for two result sets."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    samples = {"parent": defaultdict(list), "change": defaultdict(list)}
    for side, runs in (("parent", parent), ("change", change)):
        for run in runs:
            for name, value in run["metrics"].items():
                samples[side][run["workload"], name].append(value)
    rows = []
    for key in sorted(samples["parent"]):
        if key not in samples["change"] or key[1] not in metrics:
            continue
        spec_metric = metrics[key[1]]
        p, c = samples["parent"][key], samples["change"][key]
        rows.append((
            key[0], key[1],
            verdict(p, c, spec_metric["better"], spec_metric.get("bound")),
            {"parent": quartiles(p), "change": quartiles(c)},
        ))
    return rows


def main(argv: list[str], spec: dict) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two result sets (JSONL run summaries).",
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load_history(args.parent), load_history(args.change), spec)
    print(f"{'workload':<14}{'metric':<44}{'verdict':<12}"
          f"{'parent q1/med/q3':>30}{'change q1/med/q3':>30}")
    for workload, name, outcome, numbers in rows:
        parent = "/".join(f"{v:.4g}" for v in numbers["parent"])
        change = "/".join(f"{v:.4g}" for v in numbers["change"])
        print(f"{workload:<14}{name:<44}{outcome:<12}{parent:>30}{change:>30}")
    return 1 if any(row[2] == "regressed" for row in rows) else 0
