"""Kill-anywhere chaos for the shard layer.

SIGKILLs real worker subprocesses and abandons the coordinator
mid-campaign, then requires resumed aggregates to stay byte-identical
to an uninterrupted single-process reference — the acceptance contract
of the distribution layer.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.campaign.journal import read_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    AGGREGATE_FILE,
    JOURNAL_FILE,
    CampaignRunner,
    campaign_status,
)


def _manifest(n_sims=8, name="shard-chaos"):
    return CampaignManifest(
        name=name,
        scenario={"kind": "left_turn"},
        comm={"sensor_noise": 0.3},
        planner={"kind": "constant", "acceleration": 2.0},
        n_sims=n_sims,
        seed=5,
        chunk_size=1,
        config={"max_time": 8.0},
    )


def _reference_bytes(manifest, tmp_path):
    ref_dir = tmp_path / "reference"
    CampaignRunner(manifest, ref_dir).run()
    return (ref_dir / AGGREGATE_FILE).read_bytes()


def _completed_chunks(directory):
    records, _ = read_journal(directory / JOURNAL_FILE)
    return sum(1 for r in records if r.get("type") == "chunk_completed")


class _CrashCoordinator(RuntimeError):
    """Marker the tick hook raises to abandon the coordinator mid-run."""


class TestWorkerKill:
    def test_sigkilled_worker_chunks_redispatched(self, tmp_path):
        manifest = _manifest(n_sims=6)
        reference = _reference_bytes(manifest, tmp_path)
        directory = tmp_path / "sharded"
        state = {"killed": False}

        def hook(coordinator, now):
            if not state["killed"] and _completed_chunks(directory) >= 1:
                pids = coordinator.worker_pids()
                victim = sorted(pids)[0]
                os.kill(pids[victim], signal.SIGKILL)
                state["killed"] = True

        report = CampaignRunner(
            manifest,
            directory,
            n_workers=3,
            lease_ttl=10.0,
            heartbeat_interval=0.2,
            tick_hook=hook,
        ).run()
        assert state["killed"]
        assert report.status == "completed"
        assert (directory / AGGREGATE_FILE).read_bytes() == reference
        summary = campaign_status(directory)
        # The victim's death is journaled, and the survivors absorbed
        # its leases/range.
        exited = [
            worker
            for worker, entry in summary["workers"].items()
            if not entry["alive"]
        ]
        assert len(exited) == 3  # all exited by the end; one violently
        assert summary["completed_chunks"] == 6

    def test_all_workers_dead_raises_resumable_error(self, tmp_path):
        manifest = _manifest(n_sims=6)
        directory = tmp_path / "sharded"

        def hook(coordinator, now):
            for pid in coordinator.worker_pids().values():
                os.kill(pid, signal.SIGKILL)

        with pytest.raises(Exception, match="all shard workers died"):
            CampaignRunner(
                manifest,
                directory,
                n_workers=2,
                lease_ttl=10.0,
                heartbeat_interval=0.2,
                tick_hook=hook,
            ).run()
        # The journal survived; a fresh fleet finishes the campaign.
        reference = _reference_bytes(manifest, tmp_path)
        report = CampaignRunner(
            manifest, directory, n_workers=2, heartbeat_interval=0.2
        ).resume()
        assert report.status == "completed"
        assert (directory / AGGREGATE_FILE).read_bytes() == reference


class TestCoordinatorCrash:
    def test_abandoned_coordinator_resumes_bit_identical(self, tmp_path):
        manifest = _manifest(n_sims=8)
        reference = _reference_bytes(manifest, tmp_path)
        directory = tmp_path / "sharded"
        state = {"killed": False}

        def hook(coordinator, now):
            done = _completed_chunks(directory)
            if not state["killed"] and done >= 1:
                pids = coordinator.worker_pids()
                victim = sorted(pids)[-1]
                os.kill(pids[victim], signal.SIGKILL)
                state["killed"] = True
            if done >= 3:
                raise _CrashCoordinator("chaos: abandoning coordinator")

        with pytest.raises(_CrashCoordinator):
            CampaignRunner(
                manifest,
                directory,
                n_workers=3,
                lease_ttl=10.0,
                heartbeat_interval=0.2,
                tick_hook=hook,
            ).run()
        before = _completed_chunks(directory)
        assert 3 <= before < 8
        report = CampaignRunner(
            manifest, directory, n_workers=3, heartbeat_interval=0.2
        ).resume()
        assert report.status == "completed"
        assert report.completed_chunks == 8
        assert (directory / AGGREGATE_FILE).read_bytes() == reference
        assert campaign_status(directory)["coordinator_epochs"] == 2

    def test_repeated_crashes_converge(self, tmp_path):
        """Crash after every couple of chunks until the campaign finishes."""
        manifest = _manifest(n_sims=6)
        reference = _reference_bytes(manifest, tmp_path)
        directory = tmp_path / "sharded"

        state = {"threshold": 2}

        def hook(coordinator, now):
            if _completed_chunks(directory) >= state["threshold"]:
                state["threshold"] += 2
                raise _CrashCoordinator("chaos: abandoning coordinator")

        with pytest.raises(_CrashCoordinator):
            CampaignRunner(
                manifest,
                directory,
                n_workers=2,
                heartbeat_interval=0.2,
                tick_hook=hook,
            ).run()
        attempts = 0
        while True:
            attempts += 1
            assert attempts <= 10, "resume never converged"
            coordinator = CampaignRunner(
                manifest,
                directory,
                n_workers=2,
                heartbeat_interval=0.2,
                tick_hook=hook,
            )
            try:
                report = coordinator.resume()
            except _CrashCoordinator:
                continue
            break
        assert report.status == "completed"
        assert (directory / AGGREGATE_FILE).read_bytes() == reference
        assert campaign_status(directory)["coordinator_epochs"] >= 2
