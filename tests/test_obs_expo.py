"""Metric series ordering, quantile edges, Prometheus exposition, and
the ``repro-obs expo`` / ``top`` commands.

The exposition contract is *byte determinism*: the same registry
content must render the same bytes no matter the order series were
first written.  That rests on two layers pinned here — the snapshot's
``(name, label items)`` ordering and the renderer's canonical value
formatting.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import ConfigurationError, SerializationError
from repro.obs.cli import main as obs_main
from repro.obs.expo import (
    CONTENT_TYPE,
    measurements_from_document,
    render_prometheus,
    render_registry,
)
from repro.obs.recorder import TELEMETRY_FORMAT
from repro.obs.metrics import (
    MetricsRegistry,
    histogram_quantile,
    metric_key,
    parse_series_key,
    series_sort_key,
)


class TestParseSeriesKey:
    def test_roundtrips_metric_key(self):
        key = metric_key("channel.dropped", {"stage": "loss", "channel": "v1"})
        name, labels = parse_series_key(key)
        assert name == "channel.dropped"
        assert labels == (("channel", "v1"), ("stage", "loss"))

    def test_unlabelled_key(self):
        assert parse_series_key("engine.runs") == ("engine.runs", ())

    def test_unparseable_keys_are_returned_whole(self):
        # Total function: garbage keys become the name with no labels.
        assert parse_series_key("weird{") == ("weird{", ())
        assert parse_series_key("weird{novalue}") == ("weird{novalue}", ())
        assert parse_series_key("empty{}") == ("empty", ())

    def test_sort_key_groups_families_together(self):
        # Plain string sort would interleave: "{" > alphanumerics.
        keys = ["serve.offered", "serve.decisions{ladder=1}", "serve.decisions"]
        ordered = sorted(keys, key=series_sort_key)
        assert ordered == [
            "serve.decisions",
            "serve.decisions{ladder=1}",
            "serve.offered",
        ]


class TestSnapshotOrdering:
    def _filled(self, order):
        registry = MetricsRegistry()
        for name, labels in order:
            registry.count(name, 1, **labels)
        return registry

    def test_snapshot_bytes_independent_of_insertion_order(self):
        series = [
            ("serve.offered", {}),
            ("serve.decisions", {"ladder": "2"}),
            ("serve.decisions", {"ladder": "1"}),
            ("channel.dropped", {"stage": "loss"}),
        ]
        forward = self._filled(series)
        backward = self._filled(list(reversed(series)))
        assert json.dumps(forward.snapshot()) == json.dumps(
            backward.snapshot()
        )
        keys = list(forward.snapshot()["counters"])
        assert keys == [
            "channel.dropped{stage=loss}",
            "serve.decisions{ladder=1}",
            "serve.decisions{ladder=2}",
            "serve.offered",
        ]

    def test_counter_series_sorted(self):
        registry = self._filled(
            [("a.x", {"k": "2"}), ("a.x", {"k": "1"}), ("a.x", {})]
        )
        assert list(registry.counter_series("a.")) == [
            "a.x",
            "a.x{k=1}",
            "a.x{k=2}",
        ]


class TestQuantileEdges:
    def _hist(self, values, buckets=(0.001, 0.01, 0.1)):
        registry = MetricsRegistry()
        registry.register_histogram("h", buckets)
        for value in values:
            registry.observe("h", value)
        return registry.snapshot()["histograms"]["h"]

    def test_empty_histogram_is_none(self):
        # A never-observed series only exists as a snapshot shape (e.g.
        # a zeroed fleet delta), not inside a registry.
        empty = {
            "buckets": [0.001, 0.01],
            "counts": [0, 0, 0],
            "count": 0,
            "sum": 0.0,
            "min": None,
            "max": None,
        }
        assert histogram_quantile(empty, 0.5) is None

    def test_q0_is_observed_min_and_q1_is_observed_max(self):
        snapshot = self._hist([0.002, 0.004, 0.09])
        assert histogram_quantile(snapshot, 0.0) == 0.002
        assert histogram_quantile(snapshot, 1.0) == 0.09

    def test_interpolation_clamps_to_observed_min(self):
        # All mass in the wide first bucket: naive interpolation would
        # report a value below anything actually seen.
        snapshot = self._hist([0.0009, 0.00095])
        for q in (0.1, 0.5, 0.9):
            assert histogram_quantile(snapshot, q) >= 0.0009

    def test_overflow_rank_returns_observed_max(self):
        snapshot = self._hist([5.0, 7.0])  # both beyond the last bound
        assert histogram_quantile(snapshot, 0.99) == 7.0

    def test_mid_quantile_between_min_and_max(self):
        snapshot = self._hist([0.0005, 0.005, 0.05, 0.09])
        p50 = histogram_quantile(snapshot, 0.5)
        assert 0.0005 <= p50 <= 0.09

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ConfigurationError):
            histogram_quantile(self._hist([0.01]), 1.5)


class TestAbsorbHistogram:
    def test_exact_sum_merge(self):
        source = MetricsRegistry()
        source.register_histogram("d", (1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            source.observe("d", value)
        target = MetricsRegistry()
        snap = source.snapshot()["histograms"]["d"]
        target.absorb_histogram("d", snap)
        target.absorb_histogram("d", snap)
        merged = target.snapshot()["histograms"]["d"]
        assert merged["count"] == 6
        assert merged["counts"] == [2, 2, 2]
        assert merged["sum"] == pytest.approx(10.0)
        # min/max folding is idempotent.
        assert merged["min"] == 0.5
        assert merged["max"] == 3.0

    def test_refuses_mismatched_bounds(self):
        target = MetricsRegistry()
        target.register_histogram("d", (1.0, 2.0))
        foreign = {
            "buckets": [5.0],
            "counts": [1, 0],
            "count": 1,
            "sum": 1.0,
            "min": 1.0,
            "max": 1.0,
        }
        with pytest.raises(ConfigurationError):
            target.absorb_histogram("d", foreign)

    def test_refuses_bad_counts_length(self):
        target = MetricsRegistry()
        bad = {
            "buckets": [1.0, 2.0],
            "counts": [1, 2],  # needs len(buckets) + 1 slots
            "count": 3,
            "sum": 3.0,
            "min": 1.0,
            "max": 2.0,
        }
        with pytest.raises(ConfigurationError):
            target.absorb_histogram("d", bad)


class TestExposition:
    def _registry(self, order):
        registry = MetricsRegistry()
        for kind, name, value, labels in order:
            getattr(registry, kind)(name, value, **labels)
        return registry

    def test_byte_stability_across_insertion_orders(self):
        series = [
            ("count", "serve.offered", 4, {}),
            ("count", "serve.decisions", 3, {"ladder": "1"}),
            ("count", "serve.decisions", 1, {"ladder": "2"}),
            ("gauge", "serve.inflight", 0.0, {}),
            ("observe", "serve.decision_seconds", 0.002, {}),
            ("observe", "serve.decision_seconds", 0.004, {}),
        ]
        forward = render_registry(self._registry(series))
        backward = render_registry(self._registry(list(reversed(series))))
        assert forward == backward

    def test_counter_and_gauge_lines(self):
        text = render_registry(
            self._registry(
                [
                    ("count", "serve.offered", 4, {}),
                    ("gauge", "serve.inflight", 2.0, {}),
                ]
            )
        )
        assert "# TYPE repro_serve_offered counter\n" in text
        assert "repro_serve_offered 4\n" in text
        assert "# TYPE repro_serve_inflight gauge\n" in text
        assert "repro_serve_inflight 2\n" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.register_histogram("lat", (1.0, 2.0))
        for value in (0.5, 0.6, 1.5, 9.0):
            registry.observe("lat", value)
        text = render_registry(registry)
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="2"} 3' in text
        assert 'repro_lat_bucket{le="+Inf"} 4' in text
        assert "repro_lat_count 4" in text
        assert "repro_lat_sum 11.6" in text

    def test_label_escaping_and_name_sanitisation(self):
        registry = MetricsRegistry()
        registry.count("channel.stage_dropped", 1, stage='lo"ss')
        text = render_registry(registry)
        assert 'repro_channel_stage_dropped{stage="lo\\"ss"} 1' in text

    def test_namespace_is_sanitised(self):
        text = render_prometheus(
            {"counters": {"engine.runs": 3}}, namespace="my-app"
        )
        assert text == "# TYPE my_app_engine_runs counter\nmy_app_engine_runs 3\n"
        exposed = text.splitlines()[1].split()[0]
        assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", exposed)

    def test_namespace_disabled(self):
        text = render_prometheus(
            {"counters": {"x": 1}}, namespace=""
        )
        assert text == "# TYPE x counter\nx 1\n"

    def test_help_text_emitted_when_given(self):
        text = render_prometheus(
            {"counters": {"serve.offered": 1}},
            help_text={"serve.offered": "admitted decide requests"},
        )
        assert (
            "# HELP repro_serve_offered admitted decide requests\n" in text
        )

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_content_type_pinned(self):
        assert CONTENT_TYPE == "text/plain; version=0.0.4"


def _healthy_bench_document() -> dict:
    """A ``BENCH_<area>.json`` shaped document with numeric extras."""

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

    def test_unrecognised_document_raises(self):
        with pytest.raises(SerializationError, match="unrecognised"):
            measurements_from_document({"hello": "world"})


class TestObsCli:
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

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--window", "-1"], "--window"),
            (["--window", "0"], "--window"),
            (["--follow", "--interval", "-1"], "--interval"),
        ],
        ids=["negative-window", "zero-window", "negative-interval"],
    )
    def test_top_rejects_bad_flag_values(self, tmp_path, capsys, flags, flag):
        code = obs_main(["top", "--dir", str(tmp_path), *flags])
        assert code == 2
        assert f"repro-obs: error: {flag} " in capsys.readouterr().err

    def test_expo_missing_document_is_exit_2(self, tmp_path, capsys):
        code = obs_main(["expo", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err
