"""The fleet's chunk queue: claim order, backoff, budget, death, completion.

The queue lives in the fleet loop's state and its methods take the
clock as an argument, so every interleaving here runs with a synthetic
clock and zero sleeping.  The runner-level cases drive the event
handlers with handles whose process is never started.
"""

from __future__ import annotations

import selectors
from collections import deque

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.journal import JournalWriter, read_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    JOURNAL_FILE,
    CampaignProgress,
    CampaignRunner,
    _LoopState,
    _WorkerHandle,
)
from repro.errors import CampaignError

FP = "deadbeefcafe0123" * 4  # any 64-hex-ish fingerprint works


def _queue(chunks=range(6), backoff=None, journal=None):
    return _LoopState(
        progress=CampaignProgress(fingerprint=FP),
        journal=journal,
        backoff=backoff if backoff is not None else BackoffPolicy(),
        pending=deque(chunks),
    )


class _ExitedProcess:
    """A worker process that has already died: stdout at EOF, reaped."""

    class _Pipe:
        def fileno(self):
            return 0

    stdout = _Pipe()

    def poll(self):
        return -9

    def wait(self):
        return -9


def _runner(tmp_path):
    manifest = CampaignManifest(
        name="queue",
        scenario={"kind": "left_turn"},
        comm={},
        planner={"kind": "constant", "acceleration": 1.0},
        n_sims=4,
        seed=1,
        chunk_size=1,
    )
    return CampaignRunner(manifest, tmp_path / "c", n_workers=2)


class TestClaims:
    def test_chunks_come_out_in_ascending_order(self):
        queue = _queue(chunks=[2, 3, 5, 8])
        claimed = [queue.claim(0.0)[0] for _ in range(4)]
        assert claimed == [2, 3, 5, 8]

    def test_claims_exhaust_then_none(self):
        queue = _queue(chunks=range(2))
        assert queue.claim(0.0) is not None
        assert queue.claim(0.0) is not None
        assert queue.claim(0.0) is None

    def test_attempt_numbers_increment_across_grants(self):
        queue = _queue(chunks=[7])
        assert queue.claim(0.0) == (7, 1)
        queue.requeue(7, 20.0)  # its worker died
        assert queue.claim(100.0) == (7, 2)

    def test_eligible_retry_comes_before_pending(self):
        queue = _queue(chunks=range(4))
        queue.claim(0.0)
        queue.claim(0.0)
        queue.requeue(1, 0.0)
        queue.requeue(0, 0.0)
        assert [queue.claim(100.0)[0] for _ in range(4)] == [0, 1, 2, 3]


class TestBackoff:
    def test_retry_eligible_after_deterministic_backoff(self):
        backoff = BackoffPolicy(max_attempts=5)
        queue = _queue(chunks=[0, 1], backoff=backoff)
        assert queue.claim(0.0) == (0, 1)
        delay = queue.requeue(0, 10.0)
        assert delay == backoff.delay(FP, 0, 1)
        # Before the delay elapses the pending chunk goes out instead...
        assert queue.claim(10.0) == (1, 1)
        assert queue.claim(10.0 + delay - 1e-9) is None
        # ...and the retry once it has.
        assert queue.claim(10.0 + delay) == (0, 2)
        assert queue.requeue(0, 20.0) == backoff.delay(FP, 0, 2)


class TestCompletionAndFailure:
    def test_requeued_chunk_completion_is_dropped(self, tmp_path):
        # A chunk in the retry pool has no holder, so a late completed
        # event for it changes nothing: the retry stands.
        runner = _runner(tmp_path)
        queue = _queue(
            chunks=range(2), journal=JournalWriter(tmp_path / JOURNAL_FILE)
        )
        queue.claim(0.0)
        queue.requeue(0, 0.0)
        handle = _WorkerHandle(worker_id="w0", process=None)
        event = {"event": "completed", "chunk": 0, "digest": "d" * 64}
        runner._handle_event(handle, event, queue)
        queue.journal.close()
        assert read_journal(tmp_path / JOURNAL_FILE)[0] == []
        assert queue.progress.completed == {}
        assert queue.claim(1000.0) == (0, 2)
        assert queue.claim(1000.0) == (1, 1)
        assert queue.claim(1000.0) is None

    def test_error_budget_exhaustion_raises(self):
        backoff = BackoffPolicy(max_attempts=2)
        queue = _queue(chunks=[0], backoff=backoff)
        queue.claim(0.0)
        delay = queue.fail(0, 1.0)
        assert delay == backoff.delay(FP, 0, 1)
        assert queue.claim(1.0 + delay) == (0, 2)
        with pytest.raises(CampaignError, match="giving up"):
            queue.fail(0, 5.0)

    def test_fail_without_lease_is_noop(self, tmp_path):
        # An error about a chunk the worker does not hold is dropped
        # whole: no chunk_failed record, no requeue, no budget spent.
        runner = _runner(tmp_path)
        queue = _queue(journal=JournalWriter(tmp_path / JOURNAL_FILE))
        handle = _WorkerHandle(worker_id="w0", process=None)
        runner._handle_event(handle, {"event": "error", "chunk": 0}, queue)
        queue.journal.close()
        assert queue.retry == []
        assert queue.attempts == {}
        assert list(queue.pending) == list(range(6))
        assert read_journal(tmp_path / JOURNAL_FILE)[0] == []


class TestDeath:
    def test_dead_workers_chunk_requeued(self, tmp_path):
        runner = _runner(tmp_path)
        queue = _queue(journal=JournalWriter(tmp_path / JOURNAL_FILE))
        chunk, _ = queue.claim(0.0)
        handle = _WorkerHandle(worker_id="w1", process=_ExitedProcess())
        handle.busy_chunk = chunk
        selector = selectors.DefaultSelector()
        runner._on_worker_gone(handle, selector, queue)
        runner._on_worker_gone(handle, selector, queue)  # EOF after it
        queue.journal.close()
        selector.close()
        assert not handle.alive and handle.busy_chunk is None
        assert [entry[1] for entry in queue.retry] == [chunk]
        records, _ = read_journal(tmp_path / JOURNAL_FILE)
        assert [r["type"] for r in records] == [
            "worker_exited",
            "lease_expired",
        ]
        assert records[1]["chunk"] == chunk
        assert records[1]["reason"] == "worker_exited"
        assert records[1]["delay"] == BackoffPolicy().delay(FP, chunk, 1)

    @pytest.mark.parametrize("reason", ["worker_exited", "ttl"])
    def test_only_a_silent_worker_spends_the_budget(self, tmp_path, reason):
        runner = _runner(tmp_path)
        queue = _queue(
            backoff=BackoffPolicy(max_attempts=1),
            journal=JournalWriter(tmp_path / JOURNAL_FILE),
        )
        chunk, _ = queue.claim(0.0)
        handle = _WorkerHandle(worker_id="w1", process=_ExitedProcess())
        handle.busy_chunk = chunk
        selector = selectors.DefaultSelector()
        try:
            if reason == "ttl":
                with pytest.raises(CampaignError, match="giving up"):
                    runner._on_worker_gone(handle, selector, queue, reason)
                assert queue.retry == []
            else:
                runner._on_worker_gone(handle, selector, queue, reason)
                assert [entry[1] for entry in queue.retry] == [chunk]
        finally:
            queue.journal.close()
            selector.close()
        assert not handle.alive


class TestExpiry:
    def test_heartbeat_renews_lease(self, tmp_path):
        runner = _runner(tmp_path)
        queue = _queue(journal=JournalWriter(tmp_path / JOURNAL_FILE))
        handle = _WorkerHandle(worker_id="w0", process=None)
        handle.busy_chunk = 0
        assert handle.silent(10.0 + 1e-9, ttl=10.0)
        assert not handle.silent(10.0, ttl=10.0)
        # A heartbeat for another chunk renews nothing.
        runner._handle_event(handle, {"event": "heartbeat", "chunk": 1}, queue)
        assert handle.last_event == 0.0
        runner._handle_event(handle, {"event": "heartbeat", "chunk": 0}, queue)
        queue.journal.close()
        renewed = handle.last_event
        assert renewed > 0.0
        assert not handle.silent(renewed + 10.0, ttl=10.0)
        assert handle.silent(renewed + 10.0 + 1e-6, ttl=10.0)
        records, _ = read_journal(tmp_path / JOURNAL_FILE)
        assert [(r["type"], r["chunk"]) for r in records] == [
            ("lease_heartbeat", 0)
        ]
        # An idle worker is never silent.
        handle.busy_chunk = None
        assert not handle.silent(1e9, ttl=10.0)
