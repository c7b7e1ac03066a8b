"""SLO specs: validation, document adapters, evaluation, and the CLI.

The spec in ``slo/serve_bench.json`` is the CI gate over the recorded
serve benchmark; these tests pin both halves of its contract — a
healthy recording passes, the deliberately degraded fixture in
``tests/data/BENCH_serve_degraded.json`` fails — plus every rule-type
semantic the spec language defines.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import SloError
from repro.obs.metrics import MetricsRegistry
from repro.obs.cli import main as obs_main
from repro.obs.recorder import TELEMETRY_FORMAT
from repro.obs.slo import (
    SloRule,
    evaluate_slo,
    load_slo_spec,
    measurements_from_document,
    render_report,
    spec_from_dict,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SERVE_SPEC = REPO_ROOT / "slo" / "serve_bench.json"
LIVE_SPEC = REPO_ROOT / "slo" / "serve_live.json"
DEGRADED_FIXTURE = REPO_ROOT / "tests" / "data" / "BENCH_serve_degraded.json"


def _healthy_bench_document() -> dict:
    """A BENCH_serve.json shaped document that satisfies the CI gate."""

    def entry(test, duration, extra):
        return {
            "nodeid": f"benchmarks/test_bench_serve.py::{test}",
            "outcome": "passed",
            "duration_seconds": duration,
            "extra": extra,
        }

    return {
        "schema_version": "1.0",
        "area": "serve",
        "context": {},
        "benchmarks": [
            entry(
                "test_bench_serve_throughput",
                24.5,
                {
                    "p50_ms": 1.2,
                    "p99_ms": 4.8,
                    "shed_rate": 0.0,
                    "verify_replaced": 0,
                    "shed": 0,
                    "offered": 400,
                },
            ),
            entry(
                "test_bench_serve_degraded_ladder",
                3.4,
                {
                    "p50_ms": 10.0,
                    "p99_ms": 11.2,
                    "shed_rate": 0.0,
                    "verify_replaced": 0,
                    "shed": 0,
                    "offered": 20,
                },
            ),
        ],
    }


class TestSpecValidation:
    def test_unknown_rule_type_rejected(self):
        with pytest.raises(SloError, match="unknown SLO rule type"):
            SloRule(rule_type="median_max", description="", metric="x")

    def test_unknown_rule_fields_rejected(self):
        with pytest.raises(SloError, match="unknown SLO rule fields"):
            spec_from_dict(
                {
                    "name": "s",
                    "rules": [
                        {"type": "counter_max", "metric": "x", "max": 1,
                         "treshold": 2}
                    ],
                }
            )

    def test_min_rules_need_min_and_max_rules_need_max(self):
        with pytest.raises(SloError, match="'min' bound"):
            spec_from_dict(
                {"name": "s",
                 "rules": [{"type": "counter_min", "metric": "x", "max": 1}]}
            )
        with pytest.raises(SloError, match="'max' bound"):
            spec_from_dict(
                {"name": "s",
                 "rules": [{"type": "gauge_max", "metric": "x", "min": 1}]}
            )

    def test_ratio_needs_both_sides(self):
        with pytest.raises(SloError, match="numerator"):
            spec_from_dict(
                {"name": "s",
                 "rules": [{"type": "ratio_max", "numerator": "a", "max": 1}]}
            )

    def test_empty_rules_rejected(self):
        with pytest.raises(SloError, match="non-empty"):
            spec_from_dict({"name": "s", "rules": []})

    def test_metric_labels_normalised(self):
        spec = spec_from_dict(
            {
                "name": "s",
                "rules": [
                    {"type": "gauge_max", "max": 1,
                     "metric": "m{b=2,a=1}"}
                ],
            }
        )
        assert spec.rules[0].metric == "m{a=1,b=2}"

    def test_checked_in_specs_load(self):
        assert load_slo_spec(SERVE_SPEC).name == "serve-bench"
        assert load_slo_spec(LIVE_SPEC).name == "serve-live"


class TestDocumentAdapters:
    def test_snapshot_passthrough(self):
        registry = MetricsRegistry()
        registry.count("serve.offered", 3)
        measurements = measurements_from_document(registry.snapshot())
        assert measurements["counters"]["serve.offered"] == 3

    def test_bench_document_adapter(self):
        measurements = measurements_from_document(_healthy_bench_document())
        assert measurements["counters"]["bench.recorded"] == 2
        assert measurements["counters"]["bench.failed"] == 0
        gauges = measurements["gauges"]
        assert (
            gauges["bench.p99_ms{test=test_bench_serve_throughput}"] == 4.8
        )
        assert (
            gauges[
                "bench.duration_seconds{test=test_bench_serve_throughput}"
            ]
            == 24.5
        )

    def test_stats_payload_adapter(self):
        stats = {
            "event": "stats",
            "enabled": True,
            "offered": 5,
            "served": 4,
            "degraded": 1,
            "shed": 0,
            "verify_replaced": 0,
            "ladder": {"1": 4, "2": 1, "3": 0},
            "shed_rate": 0.0,
            "p50_ms": 1.5,
            "p99_ms": 3.0,
        }
        measurements = measurements_from_document(stats)
        assert measurements["counters"]["serve.offered"] == 5
        assert measurements["counters"]["serve.decisions{ladder=2}"] == 1
        assert measurements["gauges"]["serve.p99_ms"] == 3.0

    def test_unrecognised_document_raises(self):
        with pytest.raises(SloError, match="unrecognised"):
            measurements_from_document({"hello": "world"})


class TestEvaluation:
    def _spec(self, *rules):
        return spec_from_dict({"name": "t", "rules": list(rules)})

    def test_absent_counter_reads_zero(self):
        spec = self._spec(
            {"type": "counter_max", "metric": "errors", "max": 0}
        )
        report = evaluate_slo(spec, {"counters": {}, "gauges": {}})
        assert report.passed

    def test_absent_gauge_fails_unless_allowed(self):
        strict = self._spec({"type": "gauge_max", "metric": "g", "max": 1})
        lenient = self._spec(
            {"type": "gauge_max", "metric": "g", "max": 1, "absent_ok": True}
        )
        document = {"counters": {}, "gauges": {}}
        assert not evaluate_slo(strict, document).passed
        assert evaluate_slo(lenient, document).passed

    def test_quantile_rule_over_histogram(self):
        registry = MetricsRegistry()
        registry.register_histogram("lat", (0.01, 0.1, 1.0))
        for value in (0.005, 0.006, 0.007, 0.5):
            registry.observe("lat", value)
        tight = self._spec(
            {"type": "quantile_max", "metric": "lat", "q": 0.5, "max": 0.01}
        )
        loose = self._spec(
            {"type": "quantile_max", "metric": "lat", "q": 0.99, "max": 0.001}
        )
        assert evaluate_slo(tight, registry.snapshot()).passed
        assert not evaluate_slo(loose, registry.snapshot()).passed

    def test_ratio_with_zero_denominator(self):
        spec = self._spec(
            {"type": "ratio_max", "numerator": "shed",
             "denominator": "offered", "max": 0.1}
        )
        assert evaluate_slo(spec, {"counters": {}}).passed
        assert not evaluate_slo(spec, {"counters": {"shed": 1}}).passed

    def test_counter_min(self):
        spec = self._spec(
            {"type": "counter_min", "metric": "runs", "min": 3}
        )
        assert evaluate_slo(spec, {"counters": {"runs": 3}}).passed
        assert not evaluate_slo(spec, {"counters": {"runs": 2}}).passed

    def test_report_serialises(self):
        spec = self._spec(
            {"type": "counter_max", "metric": "e", "max": 0,
             "description": "no errors"}
        )
        report = evaluate_slo(spec, {"counters": {"e": 2}})
        payload = report.to_dict()
        assert payload["passed"] is False
        assert payload["checks"][0]["ok"] is False
        assert payload["checks"][0]["value"] == 2.0
        text = render_report(report)
        assert "[FAIL] no errors" in text
        assert "result: FAIL (0/1 checks)" in text


class TestServeBenchGate:
    def test_healthy_recording_passes(self):
        spec = load_slo_spec(SERVE_SPEC)
        report = evaluate_slo(spec, _healthy_bench_document())
        assert report.passed, render_report(report)

    def test_degraded_fixture_fails(self):
        spec = load_slo_spec(SERVE_SPEC)
        document = json.loads(DEGRADED_FIXTURE.read_text(encoding="utf-8"))
        report = evaluate_slo(spec, document)
        assert not report.passed
        failed = {
            check.rule.metric for check in report.checks if not check.ok
        }
        # The fixture degrades several dimensions at once; the gate
        # must catch the safety-critical one at minimum.
        assert (
            "bench.verify_replaced{test=test_bench_serve_throughput}"
            in failed
        )
        assert "bench.failed" in failed


class TestObsCli:
    def _write_healthy(self, tmp_path) -> Path:
        path = tmp_path / "BENCH_serve.json"
        path.write_text(
            json.dumps(_healthy_bench_document()), encoding="utf-8"
        )
        return path

    def test_slo_check_passes_healthy(self, tmp_path, capsys):
        code = obs_main(
            ["slo", "check", str(self._write_healthy(tmp_path)),
             "--spec", str(SERVE_SPEC)]
        )
        assert code == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_slo_check_fails_degraded(self, capsys):
        code = obs_main(
            ["slo", "check", str(DEGRADED_FIXTURE),
             "--spec", str(SERVE_SPEC)]
        )
        assert code == 1
        assert "result: FAIL" in capsys.readouterr().out

    def test_slo_check_json_report(self, tmp_path, capsys):
        code = obs_main(
            ["slo", "check", str(self._write_healthy(tmp_path)),
             "--spec", str(SERVE_SPEC), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == "serve-bench"
        assert payload["passed"] is True

    def test_slo_check_bad_spec_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "rules": []}', encoding="utf-8")
        code = obs_main(
            ["slo", "check", str(DEGRADED_FIXTURE), "--spec", str(bad)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_expo_renders_document(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.count("serve.offered", 7)
        snapshot_path = tmp_path / "snapshot.json"
        snapshot_path.write_text(
            json.dumps(registry.snapshot()), encoding="utf-8"
        )
        assert obs_main(["expo", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serve_offered counter" in out
        assert "repro_serve_offered 7" in out

    def test_top_renders_sidecar(self, tmp_path, capsys):
        frames = []
        for i in range(3):
            frames.append(
                {
                    "format": TELEMETRY_FORMAT,
                    "t": float(i),
                    "wall": 1000.0 + i,
                    "counters": {
                        "fleet.engine.runs": 10.0 * i,
                        "fleet.engine.runs{worker=w0}": 10.0 * i,
                        "fleet.worker.chunks_completed{worker=w0}": float(i),
                        "fleet.worker.chunks_completed": float(i),
                    },
                    "gauges": {"fleet.worker_up{worker=w0}": 1.0},
                    "histograms": {},
                }
            )
        sidecar = tmp_path / "telemetry.jsonl"
        sidecar.write_text(
            "".join(json.dumps(frame) + "\n" for frame in frames),
            encoding="utf-8",
        )
        assert obs_main(["top", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro fleet telemetry" in out
        assert "sims/s" in out
        assert "w0" in out and "up" in out

    def test_top_empty_sidecar_still_renders(self, tmp_path, capsys):
        assert obs_main(["top", "--dir", str(tmp_path)]) == 0
        assert "no telemetry frames yet" in capsys.readouterr().out

    def test_expo_missing_document_is_exit_2(self, tmp_path, capsys):
        code = obs_main(["expo", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err
