"""Event/metric presence across the instrumented layers, plus the CLI.

The identity tests prove tracing changes nothing; these prove it
records what ``docs/OBSERVABILITY.md`` promises — per-step engine
spans, shield switches with cause, filter replay/width telemetry, and
per-stage channel fault counters — and that the ``repro-obs``
subcommands consume the streams end to end.
"""

import json

import pytest

from repro.obs.cli import main as trace_main
from repro.obs.cli import record_trace
from repro.obs.export import read_jsonl, validate_chrome_trace


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """One traced storm episode shared by every assertion below."""
    out_dir = tmp_path_factory.mktemp("trace")
    report = record_trace(out_dir, scenario="left_turn", faults="storm", seed=3)
    return out_dir, report


class TestEngineSpans:
    def test_run_and_step_spans(self, recording):
        _, report = recording
        tracer = report["observer"].tracer
        runs = tracer.events_named("engine.run")
        assert len(runs) == 1
        steps = tracer.events_named("engine.step")
        # The terminal step (the one that detects reached/collision)
        # gets a span but is not counted in the result's step total.
        assert len(steps) in (
            report["result"].steps,
            report["result"].steps + 1,
        )
        assert runs[0]["attrs"]["outcome"] == report["result"].outcome.value

    def test_stage_spans_present(self, recording):
        _, report = recording
        tracer = report["observer"].tracer
        for stage in ("engine.profile", "engine.comm", "engine.estimate",
                      "engine.plan", "engine.act", "engine.sense"):
            assert tracer.events_named(stage), f"no {stage} spans"

    def test_planned_steps_counter(self, recording):
        _, report = recording
        metrics = report["observer"].metrics
        assert metrics.counter_value("engine.runs") == 1
        assert metrics.counter_value("engine.planned_steps") > 0


class TestShieldEvents:
    def test_margin_series_sampled_every_monitor_step(self, recording):
        _, report = recording
        tracer = report["observer"].tracer
        margins = tracer.events_named("shield.margin")
        assert margins
        assert all("t" in e["attrs"] for e in margins)
        assert tracer.events_named("shield.boundary_distance")

    def test_switch_events_carry_cause(self, recording):
        _, report = recording
        tracer = report["observer"].tracer
        engages = tracer.events_named("shield.engage")
        assert engages, "storm run never engaged the shield"
        assert all(
            e["attrs"]["cause"] in ("unsafe", "boundary") for e in engages
        )
        metrics = report["observer"].metrics
        assert metrics.counter_value("shield.engagements") == len(engages)


class TestFilterAndChannelTelemetry:
    def test_replay_events_under_jitter(self, recording):
        _, report = recording
        tracer = report["observer"].tracer
        replays = tracer.events_named("filter.replay")
        assert replays, "jittered channel never triggered a replay"
        assert all(e["attrs"]["depth"] >= 0 for e in replays)
        # The jitter spread exceeds dt_m, so at least one message must
        # have arrived out of order and forced a real replay.
        assert any(e["attrs"]["depth"] >= 1 for e in replays)
        metrics = report["observer"].metrics
        assert metrics.counter_value(
            "filter.replays", filter="veh1"
        ) == len(replays)

    def test_interval_width_gauges(self, recording):
        _, report = recording
        metrics = report["observer"].metrics
        assert metrics.gauge_value("filter.position_width", filter="veh1") is not None
        assert metrics.gauge_value("filter.velocity_width", filter="veh1") is not None

    def test_channel_stage_counters(self, recording):
        _, report = recording
        metrics = report["observer"].metrics
        sent = metrics.counter_value("channel.sent", channel="veh1")
        assert sent > 0
        dropped = metrics.counter_value(
            "channel.stage_dropped", channel="veh1", stage="IndependentLoss"
        )
        assert dropped == metrics.counter_value("channel.dropped", channel="veh1")
        assert metrics.counter_value("channel.delivered", channel="veh1") > 0
        hist = metrics.snapshot()["histograms"]
        assert "channel.delay_seconds{channel=veh1}" in hist


class TestTraceArtifacts:
    def test_chrome_trace_validates(self, recording):
        out_dir, report = recording
        assert report["problems"] == []
        document = json.loads((out_dir / "trace.json").read_text())
        assert validate_chrome_trace(document) == []

    def test_jsonl_matches_tracer(self, recording):
        out_dir, report = recording
        _, events, snapshot = read_jsonl(out_dir / "trace.jsonl")
        assert len(events) == len(report["observer"].tracer.events)
        assert snapshot == report["observer"].metrics.snapshot()


class TestCli:
    def test_record_then_summarize(self, tmp_path, capsys):
        out = tmp_path / "rec"
        assert trace_main(["record", str(out), "--seed", "2",
                           "--max-time", "4.0"]) == 0
        assert trace_main(["summarize", str(out / "trace.jsonl")]) == 0
        text = capsys.readouterr().out
        assert "engine.step" in text
        assert "counters" in text

    def test_convert_and_margins(self, recording, tmp_path, capsys):
        out_dir, _ = recording
        converted = tmp_path / "converted.json"
        assert trace_main(["convert", str(out_dir / "trace.jsonl"),
                           str(converted)]) == 0
        assert validate_chrome_trace(json.loads(converted.read_text())) == []
        assert trace_main(["margins", str(out_dir / "trace.jsonl")]) == 0
        text = capsys.readouterr().out
        assert "shield switches" in text
        assert "safety margin" in text

    def test_summarize_json_document(self, recording, capsys):
        out_dir, report = recording
        code = trace_main(
            ["summarize", str(out_dir / "trace.jsonl"), "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["n_events"] == report["n_events"]
        counts = {
            (entry["kind"], entry["name"]): entry["count"]
            for entry in document["event_counts"]
        }
        assert counts[("span", "engine.step")] >= 1
        span_names = {entry["name"] for entry in document["spans"]}
        assert "engine.step" in span_names
        for entry in document["spans"]:
            assert entry["total_seconds"] >= entry["max_seconds"]
        assert (
            document["counters"]
            == report["observer"].metrics.snapshot()["counters"]
        )

    def test_missing_stream_is_a_clean_error(self, tmp_path, capsys):
        code = trace_main(["summarize", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
