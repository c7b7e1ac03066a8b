"""Campaign-layer observability: metrics.json, status, bit-identity.

A traced campaign must (a) leave its ``aggregate.json`` byte-identical
to an untraced run of the same manifest, (b) write the operational
``metrics.json`` sidecar, and (c) surface per-chunk retry counts and
elapsed summaries through ``repro-campaign status`` — for plain,
untraced CLI runs too, since the journal carries chunk elapsed times
unconditionally.
"""

import json

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    AGGREGATE_FILE,
    METRICS_FILE,
    CampaignRunner,
    campaign_status,
)
from repro.obs.observer import Observer
from repro.sim.results import ChunkResult, FailureRecord, Outcome, SimulationResult


def _manifest(**overrides):
    fields = dict(
        name="obs-campaign",
        scenario={"kind": "left_turn"},
        comm={
            "sensor_noise": 0.3,
            "faults": [{"kind": "independent_loss", "probability": 0.2}],
        },
        planner={"kind": "constant", "acceleration": 2.0},
        n_sims=6,
        seed=42,
        chunk_size=2,
        config={"max_time": 10.0},
    )
    fields.update(overrides)
    return CampaignManifest(**fields)


class _FlakyExecutor:
    """Fails chunk 0 transiently once, then behaves."""

    def __init__(self):
        self.calls = 0

    def __call__(self, indices):
        self.calls += 1
        indices = list(indices)
        if self.calls == 1:
            return ChunkResult(
                indices=indices,
                results={},
                failures=[
                    FailureRecord(
                        index=k,
                        stage="worker",
                        error_type="WorkerDied",
                        message="injected",
                    )
                    for k in indices
                ],
            )
        return ChunkResult(
            indices=indices,
            results={
                k: SimulationResult(
                    outcome=Outcome.REACHED,
                    reaching_time=5.0 + k,
                    steps=10 + k,
                )
                for k in indices
            },
        )


class TestTracedCampaign:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        """The same manifest run untraced and traced."""
        base = tmp_path_factory.mktemp("campaigns")
        manifest = _manifest()
        plain_dir = base / "plain"
        traced_dir = base / "traced"
        CampaignRunner(manifest, plain_dir, n_workers=1).run()
        observer = Observer()
        CampaignRunner(
            manifest, traced_dir, n_workers=1, observer=observer
        ).run()
        return plain_dir, traced_dir, observer

    def test_aggregate_is_bit_identical(self, pair):
        plain_dir, traced_dir, _ = pair
        plain = (plain_dir / AGGREGATE_FILE).read_bytes()
        traced = (traced_dir / AGGREGATE_FILE).read_bytes()
        assert traced == plain

    def test_metrics_sidecar_written(self, pair):
        _, traced_dir, _ = pair
        metrics = json.loads((traced_dir / METRICS_FILE).read_text())
        assert metrics["name"] == "obs-campaign"
        assert metrics["total_retries"] == 0
        elapsed = metrics["elapsed"]
        assert elapsed["chunks_timed"] == 3
        assert elapsed["total_seconds"] >= 0.0
        assert elapsed["max_seconds"] >= elapsed["mean_seconds"] > 0.0

    def test_untraced_campaign_also_writes_metrics(self, pair):
        plain_dir, _, _ = pair
        metrics = json.loads((plain_dir / METRICS_FILE).read_text())
        assert metrics["elapsed"]["chunks_timed"] == 3

    def test_observer_recorded_campaign_telemetry(self, pair):
        _, _, observer = pair
        spans = observer.tracer.events_named("campaign.chunk")
        assert len(spans) == 3
        snapshot = observer.metrics.snapshot()
        assert "campaign.chunk_seconds" in snapshot["histograms"]
        assert "journal.fsync_seconds" in snapshot["histograms"]
        assert observer.metrics.counter_value("journal.appends") > 0


class TestStatusSurfacesOperationalData:
    def test_status_reports_retries_and_elapsed(self, tmp_path):
        manifest = _manifest(n_sims=4)
        executor = _FlakyExecutor()
        report = CampaignRunner(
            manifest,
            tmp_path / "campaign",
            chunk_executor=executor,
            backoff=BackoffPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            sleep=lambda _s: None,
        ).run()
        assert report.status == "completed"
        status = campaign_status(tmp_path / "campaign")
        assert status["chunk_retries"] == {"0": 1}
        assert status["total_retries"] == 1
        assert status["elapsed"]["chunks_timed"] == 2
        assert status["elapsed"]["total_seconds"] >= 0.0

    def test_summary_tolerates_records_without_elapsed(self):
        # Campaigns journaled before the elapsed field existed (or with
        # no completed chunks at all) must not break the status command.
        from repro.campaign.runner import CampaignProgress

        def summary_of(records):
            return CampaignProgress.fold(records, "fp").operational_summary()

        summary = summary_of(
            [
                {"type": "chunk_completed", "chunk": 0},
                {"type": "chunk_completed", "chunk": 1, "elapsed": 0.5},
            ]
        )
        assert summary["elapsed"]["chunks_timed"] == 1
        assert summary["chunk_retries"] == {}
        assert summary_of([])["elapsed"] is None
