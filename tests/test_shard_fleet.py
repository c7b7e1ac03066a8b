"""End-to-end fleet telemetry over a real sharded campaign.

The acceptance test for the fleet plane: three worker subprocesses run
a campaign while piggybacking metric deltas on their heartbeats; the
coordinator must merge them so that every unlabelled ``fleet.*``
counter equals the *exact sum* of its per-worker series, write a
``telemetry.jsonl`` sidecar, and surface the whole thing through
``status`` (and ``repro-obs expo`` over the sidecar).
"""

from __future__ import annotations

import pytest

from repro.campaign.cli import main as campaign_main
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import CampaignRunner, campaign_status
from repro.obs.metrics import parse_series_key
from repro.obs.cli import main as obs_main
from repro.obs.recorder import TELEMETRY_FILE, read_telemetry


def _manifest(n_sims=6, chunk_size=1, name="fleet-test"):
    return CampaignManifest(
        name=name,
        scenario={"kind": "left_turn"},
        comm={"sensor_noise": 0.3},
        planner={"kind": "constant", "acceleration": 2.0},
        n_sims=n_sims,
        seed=5,
        chunk_size=chunk_size,
        config={"max_time": 8.0},
    )


@pytest.fixture(scope="module")
def fleet_run(tmp_path_factory):
    """One three-worker campaign shared by every assertion below."""
    directory = tmp_path_factory.mktemp("fleet") / "campaign"
    coordinator = CampaignRunner(
        _manifest(),
        directory,
        n_workers=3,
        heartbeat_interval=0.2,
    )
    report = coordinator.run()
    assert report.status == "completed"
    return directory, coordinator


def _split_worker(key):
    """``(name, labels)`` with the worker label separated out."""
    name, labels = parse_series_key(key)
    worker = None
    rest = []
    for label_key, value in labels:
        if label_key == "worker":
            worker = value
        else:
            rest.append((label_key, value))
    return name, tuple(rest), worker


class TestExactSum:
    def test_every_fleet_counter_is_the_sum_of_its_workers(self, fleet_run):
        _, coordinator = fleet_run
        counters = coordinator.fleet_registry.snapshot()["counters"]
        assert counters, "fleet registry absorbed no worker metrics"
        totals = {}
        sums = {}
        for key, value in counters.items():
            name, rest, worker = _split_worker(key)
            if worker is None:
                totals[(name, rest)] = value
            else:
                sums[(name, rest)] = sums.get((name, rest), 0) + value
        # Every unlabelled fleet series must be exactly the sum of its
        # per-worker series — and vice versa, no orphan worker series.
        assert totals
        assert set(totals) == set(sums)
        for series, total in totals.items():
            assert sums[series] == total, series

    def test_chunk_and_sim_totals_are_exact(self, fleet_run):
        _, coordinator = fleet_run
        fleet = coordinator.fleet_registry
        assert fleet.counter_value("fleet.worker.chunks_completed") == 6
        assert fleet.counter_value("fleet.worker.sims_completed") == 6
        assert fleet.counter_value("fleet.engine.runs") == 6

    def test_all_three_workers_tracked(self, fleet_run):
        _, coordinator = fleet_run
        gauges = coordinator.fleet_registry.snapshot()["gauges"]
        workers = set()
        for key in gauges:
            name, _, worker = _split_worker(key)
            if name == "fleet.worker_up" and worker is not None:
                workers.add(worker)
        assert workers == {"w0", "w1", "w2"}
        # The run is over: every worker was marked down at shutdown.
        for worker in workers:
            value = coordinator.fleet_registry.gauge_value(
                "fleet.worker_up", worker=worker
            )
            assert value <= 0.0


class TestTelemetrySidecar:
    def test_sidecar_written_with_final_totals(self, fleet_run):
        directory, _ = fleet_run
        frames = read_telemetry(directory / TELEMETRY_FILE)
        assert frames, "coordinator wrote no telemetry frames"
        final = frames[-1]["counters"]
        assert final["fleet.worker.chunks_completed"] == 6
        assert final["fleet.metric_reports"] >= 3

    def test_chunk_seconds_histogram_absorbed(self, fleet_run):
        directory, _ = fleet_run
        frames = read_telemetry(directory / TELEMETRY_FILE)
        histograms = frames[-1]["histograms"]
        merged = histograms.get("fleet.worker.chunk_seconds")
        assert merged is not None
        assert merged["count"] == 6
        assert merged["sum"] > 0.0


class TestShardStatusSurface:
    def test_summary_includes_telemetry(self, fleet_run):
        directory, _ = fleet_run
        summary = campaign_status(directory)
        telemetry = summary["telemetry"]
        assert telemetry is not None
        assert telemetry["frames"] >= 1
        assert telemetry["counters"]["fleet.worker.chunks_completed"] == 6

    def test_cli_prints_fleet_counters(self, fleet_run, capsys):
        directory, _ = fleet_run
        code = campaign_main(["status", "--dir", str(directory)])
        assert code == 0
        text = capsys.readouterr().out
        assert "telemetry:" in text
        assert "fleet.worker.chunks_completed: 6" in text

    def test_cli_expo_renders_prometheus(self, fleet_run, capsys):
        directory, _ = fleet_run
        code = obs_main(["expo", str(directory / TELEMETRY_FILE)])
        assert code == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_fleet_worker_chunks_completed counter" in text
        assert "repro_fleet_worker_chunks_completed 6" in text
        assert 'repro_fleet_worker_up{worker="w0"}' in text

    def test_cli_expo_without_telemetry_is_an_error(self, tmp_path, capsys):
        directory = tmp_path / "plain"
        CampaignRunner(_manifest(n_sims=1), directory).run()
        (directory / TELEMETRY_FILE).unlink()
        code = obs_main(["expo", str(directory / TELEMETRY_FILE)])
        assert code == 2
        assert "no telemetry frames" in capsys.readouterr().err
