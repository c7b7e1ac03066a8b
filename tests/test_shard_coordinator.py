"""The fleet transport of CampaignRunner: bit-identity, the in-process
transport at one worker, duplicates, status, malformed events.

These tests run real worker subprocesses (spawned via ``python -m
repro.campaign.shard.worker``) against tiny manifests; the chaos-grade
kill tests live in ``test_shard_chaos.py``.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.journal import JournalWriter, read_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    AGGREGATE_FILE,
    JOURNAL_FILE,
    MANIFEST_FILE,
    CampaignProgress,
    CampaignRunner,
    _LoopState,
    _WorkerHandle,
    campaign_status,
    replay_progress,
)
from repro.errors import CampaignError
from repro.obs.observer import Observer


def _manifest(n_sims=4, chunk_size=1, name="shard-test"):
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


def _loop_state(manifest, journal_path):
    """Fresh fleet loop state: every chunk pending, nothing completed."""
    return _LoopState(
        progress=CampaignProgress(fingerprint=manifest.fingerprint),
        journal=JournalWriter(journal_path),
        backoff=BackoffPolicy(),
        pending=deque(range(manifest.n_chunks)),
    )


def _old_fleet_journal(directory, manifest):
    """A journal as fleets with work stealing and speculative twins
    wrote it: claims carry ``origin``/``speculative`` and a twin's
    completion of chunk 0 is journaled twice with equal digests."""
    directory.mkdir()
    manifest.save(directory / MANIFEST_FILE)
    fp = manifest.fingerprint
    with JournalWriter(directory / JOURNAL_FILE) as journal:
        journal.append(
            "campaign_started", fingerprint=fp, name=manifest.name,
            n_sims=manifest.n_sims, n_chunks=manifest.n_chunks,
        )
        journal.append(
            "coordinator_started", fingerprint=fp, epoch=1, n_workers=2,
            pending_chunks=2,
        )
        for worker, pid in (("w0", 101), ("w1", 102)):
            journal.append(
                "worker_spawned", fingerprint=fp, worker=worker, pid=pid
            )
        for worker, chunk, attempt, origin, speculative in (
            ("w0", 0, 1, "range", False),
            ("w1", 1, 1, "steal", False),
            ("w1", 0, 2, "speculation", True),
        ):
            journal.append(
                "lease_claimed", fingerprint=fp, worker=worker, chunk=chunk,
                attempt=attempt, origin=origin, speculative=speculative,
            )
        for worker, chunk, digest, duplicate in (
            ("w1", 1, "b" * 64, False),
            ("w1", 0, "a" * 64, False),
            ("w0", 0, "a" * 64, True),
        ):
            journal.append(
                "chunk_completed", fingerprint=fp, chunk=chunk, n_results=1,
                n_failures=0, digest=digest, elapsed=0.1, worker=worker,
                duplicate=duplicate,
            )


def _reference_bytes(manifest, tmp_path):
    ref_dir = tmp_path / "reference"
    report = CampaignRunner(manifest, ref_dir).run()
    assert report.status == "completed"
    return (ref_dir / AGGREGATE_FILE).read_bytes()


class TestBitIdentity:
    def test_sharded_aggregate_matches_sequential(self, tmp_path):
        manifest = _manifest(n_sims=5)
        reference = _reference_bytes(manifest, tmp_path)
        coordinator = CampaignRunner(
            manifest,
            tmp_path / "sharded",
            n_workers=3,
            lease_ttl=30.0,
            heartbeat_interval=0.2,
        )
        report = coordinator.run()
        assert report.status == "completed"
        assert report.completed_chunks == 5
        sharded = (tmp_path / "sharded" / AGGREGATE_FILE).read_bytes()
        assert sharded == reference

    def test_observer_does_not_change_artifacts(self, tmp_path):
        manifest = _manifest(n_sims=3)
        reference = _reference_bytes(manifest, tmp_path)
        observer = Observer()
        coordinator = CampaignRunner(
            manifest,
            tmp_path / "traced",
            n_workers=2,
            heartbeat_interval=0.2,
            observer=observer,
        )
        report = coordinator.run()
        assert report.status == "completed"
        assert (tmp_path / "traced" / AGGREGATE_FILE).read_bytes() == reference
        counters = observer.metrics.snapshot()["counters"]
        assert counters.get("shard.lease_claims", 0) >= 3
        assert counters.get("shard.chunks_completed", 0) >= 3


class TestDegradation:
    def test_single_worker_uses_campaign_runner(self, tmp_path):
        manifest = _manifest(n_sims=3)
        reference = _reference_bytes(manifest, tmp_path)
        coordinator = CampaignRunner(
            manifest, tmp_path / "solo", n_workers=1
        )
        report = coordinator.run()
        assert report.status == "completed"
        assert (tmp_path / "solo" / AGGREGATE_FILE).read_bytes() == reference
        # No shard machinery ran: the journal knows no coordinator epoch.
        records, _ = read_journal(tmp_path / "solo" / JOURNAL_FILE)
        types = {record["type"] for record in records}
        assert "coordinator_started" not in types
        assert "worker_spawned" not in types

    def test_resume_of_finished_campaign_runs_nothing(self, tmp_path):
        manifest = _manifest(n_sims=3)
        directory = tmp_path / "campaign"
        CampaignRunner(
            manifest, directory, n_workers=2, heartbeat_interval=0.2
        ).run()
        report = CampaignRunner(
            manifest, directory, n_workers=2, heartbeat_interval=0.2
        ).resume()
        assert report.status == "completed"
        assert report.chunks_run == 0

    def test_run_refuses_started_directory(self, tmp_path):
        manifest = _manifest(n_sims=2)
        directory = tmp_path / "campaign"
        CampaignRunner(
            manifest, directory, n_workers=2, heartbeat_interval=0.2
        ).run()
        with pytest.raises(CampaignError, match="resume"):
            CampaignRunner(
                manifest, directory, n_workers=2, heartbeat_interval=0.2
            ).run()


class TestValidation:
    def test_rejects_bad_knobs(self, tmp_path):
        manifest = _manifest()
        with pytest.raises(CampaignError, match="n_workers"):
            CampaignRunner(manifest, tmp_path, n_workers=0)
        with pytest.raises(CampaignError, match="lease_ttl"):
            CampaignRunner(manifest, tmp_path, lease_ttl=0.0)
        with pytest.raises(CampaignError, match="heartbeat_interval"):
            CampaignRunner(
                manifest, tmp_path, lease_ttl=1.0, heartbeat_interval=2.0
            )
        with pytest.raises(CampaignError, match="timeout_per_sim"):
            CampaignRunner(manifest, tmp_path, timeout_per_sim=0.0)
        for timeout in (float("nan"), float("inf")):
            with pytest.raises(CampaignError, match="timeout_per_sim"):
                CampaignRunner(manifest, tmp_path, timeout_per_sim=timeout)


class TestDuplicateCompletions:
    """A chunk is journaled complete once: only its holder may report it,
    and replay stays idempotent over the duplicates old fleets wrote."""

    def test_completion_from_a_non_holder_is_dropped(self, tmp_path):
        manifest = _manifest(n_sims=2)
        runner = CampaignRunner(manifest, tmp_path / "c", n_workers=2)
        state = _loop_state(manifest, tmp_path / JOURNAL_FILE)
        chunk, _ = state.claim(0.0)
        holder = _WorkerHandle(worker_id="w0", process=None)
        holder.busy_chunk = chunk
        other = _WorkerHandle(worker_id="w1", process=None)
        event = {
            "event": "completed",
            "chunk": chunk,
            "digest": "d" * 64,
            "metrics": {"counters": {"worker.chunks_completed": 1}},
        }
        runner._handle_event(other, dict(event), state)
        assert state.progress.completed == {}
        assert state.progress.next_seq == 0
        assert runner.fleet_registry.snapshot()["counters"] == {}
        assert holder.busy_chunk == chunk
        # The holder's own report of the same chunk is journaled once.
        runner._handle_event(holder, dict(event), state)
        state.journal.close()
        records, _ = read_journal(tmp_path / JOURNAL_FILE)
        assert [(r["type"], r["worker"]) for r in records] == [
            ("chunk_completed", "w0")
        ]
        assert "duplicate" not in records[0]
        assert state.progress.completed == {chunk: "d" * 64}
        assert holder.busy_chunk is None
        counters = runner.fleet_registry.snapshot()["counters"]
        assert counters["fleet.worker.chunks_completed"] == 1

    def test_retry_and_error_from_a_non_holder_are_dropped(self, tmp_path):
        manifest = _manifest(n_sims=2)
        runner = CampaignRunner(manifest, tmp_path / "c", n_workers=2)
        state = _loop_state(manifest, tmp_path / JOURNAL_FILE)
        chunk, _ = state.claim(0.0)
        holder = _WorkerHandle(worker_id="w0", process=None)
        holder.busy_chunk = chunk
        other = _WorkerHandle(worker_id="w1", process=None)
        metrics = {"counters": {"worker.chunk_errors": 1}}
        for event in (
            {"event": "retry", "chunk": chunk, "attempt": 2, "delay": 0.25},
            {"event": "error", "chunk": chunk, "error_type": "X"},
        ):
            runner._handle_event(other, dict(event, metrics=metrics), state)
        state.journal.close()
        assert read_journal(tmp_path / JOURNAL_FILE)[0] == []
        assert state.progress.next_seq == 0
        assert state.progress.operational_summary()["total_retries"] == 0
        assert runner.fleet_registry.snapshot()["counters"] == {}
        # The holder keeps its chunk; nothing was requeued or charged.
        assert holder.busy_chunk == chunk and other.last_event == 0.0
        assert state.retry == [] and state.attempts == {chunk: 1}

    def test_old_journal_duplicate_replays_idempotently(self, tmp_path):
        manifest = _manifest(n_sims=2)
        directory = tmp_path / "old"
        _old_fleet_journal(directory, manifest)
        records, _ = read_journal(directory / JOURNAL_FILE)
        progress = replay_progress(records, manifest.fingerprint)
        assert progress.completed == {0: "a" * 64, 1: "b" * 64}


class TestShardStatus:
    def test_per_worker_summary(self, tmp_path):
        manifest = _manifest(n_sims=4)
        directory = tmp_path / "campaign"
        CampaignRunner(
            manifest, directory, n_workers=2, heartbeat_interval=0.2
        ).run()
        summary = campaign_status(directory)
        assert summary["finished"] is True
        assert summary["completed_chunks"] == 4
        assert summary["coordinator_epochs"] == 1
        assert set(summary["workers"]) == {"w0", "w1"}
        total_leases = sum(
            entry["leases"] for entry in summary["workers"].values()
        )
        assert total_leases >= 4
        for entry in summary["workers"].values():
            assert entry["pid"] is not None
            assert entry["alive"] is False  # fleet shut down cleanly

    def test_old_journal_with_steals_and_twins_parses(self, tmp_path):
        manifest = _manifest(n_sims=2)
        directory = tmp_path / "old"
        _old_fleet_journal(directory, manifest)
        summary = campaign_status(directory)
        assert summary["completed_chunks"] == 2
        assert summary["duplicate_completions"] == 1
        assert summary["coordinator_epochs"] == 1
        assert summary["workers"]["w0"]["leases"] == 1
        assert summary["workers"]["w1"]["leases"] == 2
        assert summary["workers"]["w0"]["completions"] == 1
        assert summary["workers"]["w1"]["completions"] == 2
        assert summary["workers"]["w1"]["alive"] is True


class TestMalformedEvents:
    """A corrupt worker event is dropped: no exception, no journal record."""

    def _fixture(self, tmp_path):
        manifest = _manifest(n_sims=2)
        runner = CampaignRunner(manifest, tmp_path / "c", n_workers=2)
        state = _loop_state(manifest, tmp_path / JOURNAL_FILE)
        chunk, _ = state.claim(0.0)
        handle = _WorkerHandle(worker_id="w0", process=None)
        handle.busy_chunk = chunk
        return runner, state, handle, chunk

    @pytest.mark.parametrize(
        "event",
        [
            {"event": "heartbeat", "chunk": "x"},
            {"event": "heartbeat"},
            {"event": "error", "chunk": None},
            {
                "event": "completed",
                "chunk": 0,
                "digest": "d" * 64,
                "n_results": "?",
            },
            {"event": "retry", "chunk": 0, "attempt": "2", "delay": 0.0},
            {"event": "retry", "chunk": 0, "attempt": 2, "delay": -1.0},
            {"event": "completed", "chunk": 7, "digest": "d" * 64},
        ],
    )
    def test_dropped_without_a_trace(self, tmp_path, event):
        runner, state, handle, chunk = self._fixture(tmp_path)
        runner._handle_event(handle, dict(event), state)
        state.journal.close()
        records, _ = read_journal(tmp_path / JOURNAL_FILE)
        assert records == []
        assert handle.last_event == 0.0
        assert handle.busy_chunk == chunk
        assert state.progress.completed == {}
        # Neither chunk left the queue's hands: one held, one pending.
        assert list(state.pending) == [1]
        assert state.retry == []

    def test_retry_event_is_journaled_and_renews_the_lease(self, tmp_path):
        runner, state, handle, chunk = self._fixture(tmp_path)
        event = {"event": "retry", "chunk": 0, "attempt": 2, "delay": 0.25}
        runner._handle_event(handle, event, state)
        state.journal.close()
        records, _ = read_journal(tmp_path / JOURNAL_FILE)
        assert [r["type"] for r in records] == ["chunk_retry"]
        assert records[0]["attempt"] == 2
        assert records[0]["delay"] == 0.25
        assert handle.last_event > 0.0
