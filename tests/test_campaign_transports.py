"""The worker count does not change a campaign's results.

``CampaignRunner(n_workers=1)`` runs chunks in-process and
``n_workers > 1`` runs them on a fleet of shard worker subprocesses.
Both use one chunk-attempt rule and one finalisation, so for the same
manifest and knobs they must write byte-identical ``aggregate.json``
files and journal the same retries — including when every attempt of
every chunk fails transiently — and a campaign started under one
transport must resume under the other.
"""

from __future__ import annotations

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.journal import read_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    AGGREGATE_FILE,
    JOURNAL_FILE,
    CampaignRunner,
    campaign_status,
)

#: The record types an in-process (one-worker) run may journal.
IN_PROCESS_RECORDS = {
    "campaign_started",
    "chunk_retry",
    "chunk_completed",
    "interrupted",
    "campaign_finished",
}


def _manifest(n_sims=4, name="transport-test", planner=None, config=None):
    return CampaignManifest(
        name=name,
        scenario={"kind": "left_turn"},
        comm={"sensor_noise": 0.3},
        planner=planner or {"kind": "constant", "acceleration": 2.0},
        n_sims=n_sims,
        seed=5,
        chunk_size=1,
        config=config or {"max_time": 8.0},
    )


def _record_types(directory):
    records, _ = read_journal(directory / JOURNAL_FILE)
    return {record["type"] for record in records}


def _completed_chunks(directory):
    records, _ = read_journal(directory / JOURNAL_FILE)
    return sum(1 for r in records if r.get("type") == "chunk_completed")


class _AbandonRunner(RuntimeError):
    """Marker the tick hook raises to abandon a fleet mid-run."""


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """An uninterrupted in-process run of the shared manifest."""
    directory = tmp_path_factory.mktemp("reference") / "campaign"
    report = CampaignRunner(_manifest(), directory).run()
    assert report.status == "completed"
    return (directory / AGGREGATE_FILE).read_bytes()


class TestTransientExhaustion:
    """Every episode times out and every chunk exhausts its attempts.

    The budget (1e-6 s, which a pipe poll rounds up to 1 ms) cannot be
    met by construction: a braking ego never reaches its target, so each
    episode runs its full hour-long horizon (72 000 control steps,
    seconds of work) unless the watchdog kills it first.
    """

    KNOBS = dict(
        timeout_per_sim=1e-6,
        backoff=BackoffPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        heartbeat_interval=0.2,
    )

    def _run(self, directory, n_workers):
        manifest = _manifest(
            n_sims=3, planner={"kind": "full_brake"}, config={"max_time": 3600.0}
        )
        report = CampaignRunner(
            manifest, directory, n_workers=n_workers, **self.KNOBS
        ).run()
        assert report.status == "completed"
        assert report.n_failed == manifest.n_sims
        assert report.aggregate is None
        return (
            (directory / AGGREGATE_FILE).read_bytes(),
            campaign_status(directory)["chunk_retries"],
        )

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_fleet_matches_in_process(self, tmp_path, n_workers):
        in_process = self._run(tmp_path / "in-process", 1)
        fleet = self._run(tmp_path / "fleet", n_workers)
        assert fleet == in_process
        # One retry per chunk: two attempts, both exhausted.
        assert in_process[1] == {"0": 1, "1": 1, "2": 1}
        assert _record_types(tmp_path / "in-process") <= IN_PROCESS_RECORDS


class TestResumeAcrossTransports:
    def test_in_process_drain_resumes_on_a_fleet(self, tmp_path, reference):
        manifest = _manifest()
        directory = tmp_path / "campaign"
        runner = CampaignRunner(manifest, directory)
        real = runner._chunk_executor()

        def draining(indices):
            result = real(indices)
            runner.request_stop()
            return result

        runner._executor = draining
        partial = runner.run()
        assert partial.status == "interrupted"
        assert partial.completed_chunks == 1
        assert _record_types(directory) <= IN_PROCESS_RECORDS
        report = CampaignRunner(
            manifest, directory, n_workers=3, heartbeat_interval=0.2
        ).resume()
        assert report.status == "completed"
        assert report.chunks_run == manifest.n_chunks - 1
        assert (directory / AGGREGATE_FILE).read_bytes() == reference
        assert campaign_status(directory)["coordinator_epochs"] == 1

    def test_abandoned_fleet_resumes_in_process(self, tmp_path, reference):
        manifest = _manifest()
        directory = tmp_path / "campaign"

        def hook(runner, now):
            if _completed_chunks(directory) >= 2:
                raise _AbandonRunner("abandoning the fleet")

        with pytest.raises(_AbandonRunner):
            CampaignRunner(
                manifest,
                directory,
                n_workers=2,
                heartbeat_interval=0.2,
                tick_hook=hook,
            ).run()
        before = _completed_chunks(directory)
        assert 2 <= before < manifest.n_chunks
        report = CampaignRunner(manifest, directory, n_workers=1).resume()
        assert report.status == "completed"
        assert (directory / AGGREGATE_FILE).read_bytes() == reference
        assert campaign_status(directory)["coordinator_epochs"] == 1
