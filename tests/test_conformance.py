"""The differential conformance harness (:mod:`repro.testing.conformance`).

These tests pin the harness itself: the fingerprint is bit-exact and
order-sensitive, each relation checker counts its work and stays silent on
conforming systems, the instance streams are deterministic and contain the
adversarial frontier, fixture loading round-trips the committed gadget
files, and the CLI exits 0 on a clean run.  The harness's own full-scale
verdict (zero violations over >= 500 mixed instances under both kernel
settings) is exercised by the CI ``adversarial`` job; here a smaller mixed
batch keeps the tier-1 suite fast while covering every code path.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.fedcons import fedcons
from repro.generation.adversarial import chen_gadget
from repro.model.serialization import system_to_dict
from repro.testing.conformance import (
    RELATIONS,
    ConformanceInstance,
    adversarial_instances,
    check_system,
    default_instances,
    fingerprint,
    load_fixture_instance,
    main as conformance_main,
    random_instances,
    run_conformance,
)

from strategies import high_task, low_task


def _mixed_instance() -> ConformanceInstance:
    """A small accepted system with one dedicated cluster + shared tasks."""
    tasks = [high_task("h", width=2)] + [
        low_task(f"l{i}", utilization=0.3) for i in range(3)
    ]
    from repro.model.taskset import TaskSystem

    return ConformanceInstance(
        label="mixed", system=TaskSystem(tasks), processors=5
    )


class TestFingerprint:
    def test_deterministic_and_bit_exact(self):
        instance = _mixed_instance()
        a = fedcons(instance.system, instance.processors)
        b = fedcons(instance.system, instance.processors)
        assert fingerprint(a) == fingerprint(b)

    def test_distinguishes_platforms(self):
        instance = _mixed_instance()
        a = fedcons(instance.system, instance.processors)
        b = fedcons(instance.system, instance.processors + 1)
        assert fingerprint(a) != fingerprint(b)

    def test_encodes_failure_diagnostics(self):
        gadget = chen_gadget(2)  # rejected at speed 1
        result = fedcons(gadget.system, gadget.processors)
        assert not result.success
        print_ = fingerprint(result)
        assert print_[0] is False
        assert print_[1] == result.reason.value


class TestCheckSystem:
    def test_conforming_instance_has_no_violations(self):
        checks, violations = check_system(_mixed_instance())
        assert not violations
        assert set(checks) <= set(RELATIONS)
        for relation in RELATIONS:
            assert checks[relation] > 0

    def test_rejected_instance_skips_simulation_only(self):
        gadget = chen_gadget(2)
        instance = ConformanceInstance(
            label="rejected", system=gadget.system,
            processors=gadget.processors,
        )
        checks, violations = check_system(instance)
        assert not violations
        assert checks["analytic_implies_simulation"] == 0
        assert checks["kernel_identity"] > 0

    def test_speed_view_divergence_is_a_violation(self, monkeypatch):
        import repro.testing.conformance as mod

        monkeypatch.setattr(
            mod, "minimum_fedcons_speed", lambda system, m: math.inf
        )
        checks, violations = check_system(
            _mixed_instance(), simulate=False, online=False
        )
        assert checks["speed_view_identity"] == 1
        assert [v.relation for v in violations] == ["speed_view_identity"]

    def test_legs_can_be_gated(self):
        checks, _ = check_system(
            _mixed_instance(), simulate=False, online=False
        )
        assert checks["online_matches_batch"] == 0
        assert checks["analytic_implies_simulation"] == 0
        assert checks["kernel_identity"] > 0


class TestInstanceStreams:
    def test_random_stream_is_deterministic(self):
        first = [i.label for i in random_instances(6, seed=3)]
        again = [i.label for i in random_instances(6, seed=3)]
        assert first == again

    def test_adversarial_stream_straddles_the_frontier(self):
        instances = list(adversarial_instances(45))
        labels = " ".join(i.label for i in instances)
        assert "x0.95" in labels and "x1.1" in labels
        verdicts = {
            fedcons(i.system, i.processors).success for i in instances
        }
        assert verdicts == {True, False}, (
            "the frontier stream must contain both accepted and rejected "
            "instances"
        )

    def test_default_mix_honours_fraction(self):
        instances = list(default_instances(10, adversarial_fraction=0.3))
        assert len(instances) == 10
        assert sum(i.label.startswith("chen") for i in instances) == 3

    def test_default_mix_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            list(default_instances(10, adversarial_fraction=1.5))


class TestRunConformance:
    def test_mixed_batch_is_violation_free(self):
        report = run_conformance(default_instances(24, seed=1))
        assert report.ok
        assert report.instances == 24
        assert sum(report.checks.values()) > 0
        assert "0 violation(s)" in report.describe()

    def test_describe_lists_every_relation(self):
        report = run_conformance(default_instances(2, seed=0))
        text = report.describe()
        for relation in RELATIONS:
            assert relation in text


class TestFixturesAndCli:
    def test_committed_gadget_fixtures_load_and_conform(self):
        from pathlib import Path

        paths = sorted(
            (Path(__file__).parent / "data" / "gadgets").glob("*.json")
        )
        assert paths, "committed gadget fixtures missing"
        report = run_conformance(map(load_fixture_instance, paths))
        assert report.ok
        assert report.instances == len(paths)

    def test_fixture_loader_round_trip(self, tmp_path):
        gadget = chen_gadget(2, hardness=0.5)
        path = tmp_path / "fixture.json"
        path.write_text(
            json.dumps(
                {
                    "label": "roundtrip",
                    "processors": gadget.processors,
                    "system": system_to_dict(gadget.system),
                }
            )
        )
        instance = load_fixture_instance(path)
        assert instance.label == "roundtrip"
        assert instance.processors == gadget.processors
        assert system_to_dict(instance.system) == system_to_dict(
            gadget.system
        )

    def test_cli_clean_run_exits_zero(self, capsys):
        exit_code = conformance_main(
            ["--instances", "6", "--seed", "2", "--no-simulate"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "6 instance(s)" in captured.out

    def test_cli_rejects_negative_instances(self):
        with pytest.raises(SystemExit):
            conformance_main(["--instances", "-1"])

    def test_cli_violation_exits_one(self, capsys, monkeypatch):
        import repro.testing.conformance as mod

        broken = mod.ConformanceReport(
            instances=1,
            violations=[
                mod.Violation("kernel_identity", "synthetic", "mismatch")
            ],
        )
        monkeypatch.setattr(
            mod, "run_conformance", lambda *args, **kwargs: broken
        )
        exit_code = conformance_main(["--instances", "1", "--no-simulate"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "VIOLATION [kernel_identity] synthetic" in captured.out
