"""Kill-anywhere chaos for the shard layer.

SIGKILLs and SIGSTOPs real worker subprocesses and abandons the
coordinator mid-campaign, then requires resumed aggregates to stay
byte-identical to an uninterrupted single-process reference — the
acceptance contract of the distribution layer.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.journal import read_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    AGGREGATE_FILE,
    JOURNAL_FILE,
    MANIFEST_FILE,
    CampaignRunner,
    campaign_status,
)
from repro.campaign.shard.protocol import (
    COMMAND_RUN,
    COMMAND_SHUTDOWN,
    decode_line,
    encode_message,
)
from repro.errors import CampaignError


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


def _aggregate_report(directory, reference):
    """Both aggregates and the journal's completions, for a mismatch."""
    records, _ = read_journal(directory / JOURNAL_FILE)
    completions = [
        (r.get("chunk"), r.get("n_results"), r.get("n_failures"), r.get("worker"))
        for r in records
        if r.get("type") == "chunk_completed"
    ]
    got = (directory / AGGREGATE_FILE).read_bytes()
    return (
        f"resumed aggregate {got!r}\nreference {reference!r}\n"
        f"completions (chunk, n_results, n_failures, worker): {completions}"
    )


def _completed_chunks(directory):
    records, _ = read_journal(directory / JOURNAL_FILE)
    return sum(1 for r in records if r.get("type") == "chunk_completed")


class _CrashCoordinator(RuntimeError):
    """Marker the tick hook raises to abandon the coordinator mid-run."""


class _Deadline:
    """Makes a run that hangs on stopped workers fail instead of hang.

    :meth:`arm` starts a timer; when it fires before :meth:`disarm` it
    marks the deadline missed, asks the runner to stop and SIGKILLs the
    runner's workers — stopped ones included — so ``run()`` returns and
    the test fails on ``missed``.  :meth:`disarm` kills whatever worker
    is still running, so no stopped process outlives the test.
    ``Popen.kill`` polls first and never signals a reaped pid.
    """

    def __init__(self, seconds):
        self.seconds = seconds
        self.missed = False
        self._runner = None
        self._timer = None

    def arm(self, runner):
        self._runner = runner
        self._timer = threading.Timer(self.seconds, self._expire)
        self._timer.start()

    def _expire(self):
        self.missed = True
        self._runner.request_stop()
        self._kill_workers()

    def _kill_workers(self):
        for handle in self._runner._workers.values():
            handle.process.kill()

    def disarm(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer.join()
            self._kill_workers()


def _busy_workers(coordinator):
    return [
        handle
        for handle in coordinator._workers.values()
        if handle.busy_chunk is not None
    ]


def _journaled(directory, record_type):
    records, _ = read_journal(directory / JOURNAL_FILE)
    return [r for r in records if r.get("type") == record_type]


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


class TestWorkerHang:
    """A SIGSTOPped holder is SIGKILLed after ``lease_ttl`` of silence and
    its chunk requeued; nothing waits on a stopped process."""

    #: Seconds from the first SIGSTOP to a returned ``run()``.  Covers
    #: the TTL kill and the few remaining chunks, and stays below the
    #: runner's shutdown grace for a worker that never exits.
    DEADLINE = 7.0

    def test_stopped_worker_is_killed_and_its_chunk_requeued(self, tmp_path):
        manifest = _manifest(n_sims=6)
        reference = _reference_bytes(manifest, tmp_path)
        directory = tmp_path / "sharded"
        deadline = _Deadline(self.DEADLINE)
        stopped = {}

        def hook(coordinator, now):
            busy = _busy_workers(coordinator)
            if not stopped and busy:
                victim = busy[0]
                deadline.arm(coordinator)
                os.kill(victim.process.pid, signal.SIGSTOP)
                stopped[victim.worker_id] = victim.busy_chunk

        try:
            report = CampaignRunner(
                manifest,
                directory,
                n_workers=3,
                lease_ttl=2.0,
                heartbeat_interval=0.2,
                tick_hook=hook,
            ).run()
        finally:
            deadline.disarm()
        assert stopped
        assert not deadline.missed, "run() hung on a stopped worker"
        assert report.status == "completed"
        assert (directory / AGGREGATE_FILE).read_bytes() == reference
        (worker, chunk), = stopped.items()
        exits = [
            r for r in _journaled(directory, "worker_exited")
            if r["worker"] == worker
        ]
        assert [r["returncode"] for r in exits] == [-signal.SIGKILL]
        expiries = _journaled(directory, "lease_expired")
        assert [(r["worker"], r["chunk"], r["reason"]) for r in expiries] == [
            (worker, chunk, "ttl")
        ]

    def test_all_workers_stopped_raises_resumable_error(self, tmp_path):
        manifest = _manifest(n_sims=6)
        directory = tmp_path / "sharded"
        deadline = _Deadline(self.DEADLINE)
        stopped = set()

        def hook(coordinator, now):
            # Each worker is stopped while it holds a chunk: a worker
            # that starts late still gets one once the others hang.
            for handle in _busy_workers(coordinator):
                if handle.worker_id not in stopped:
                    if not stopped:
                        deadline.arm(coordinator)
                    stopped.add(handle.worker_id)
                    os.kill(handle.process.pid, signal.SIGSTOP)

        try:
            with pytest.raises(CampaignError, match="all shard workers died"):
                CampaignRunner(
                    manifest,
                    directory,
                    n_workers=2,
                    lease_ttl=2.0,
                    heartbeat_interval=0.2,
                    tick_hook=hook,
                ).run()
        finally:
            deadline.disarm()
            # Checked first: a run the deadline stopped does not raise.
            assert not deadline.missed, "run() hung on stopped workers"
        assert stopped == {"w0", "w1"}
        assert len(_journaled(directory, "worker_exited")) == 2
        reference = _reference_bytes(manifest, tmp_path)
        report = CampaignRunner(
            manifest, directory, n_workers=2, heartbeat_interval=0.2
        ).resume()
        assert report.status == "completed"
        assert (directory / AGGREGATE_FILE).read_bytes() == reference


class TestWorkerStuckBeforeReady:
    """A worker stopped before it reports ready is SIGKILLed once the
    start-up grace has passed, so a fleet whose other workers died
    raises instead of waiting on it."""

    #: Seconds from the SIGSTOP to a returned ``run()``: the start-up
    #: grace (10 s from spawn) plus a margin.
    DEADLINE = 13.0

    def test_unready_worker_is_killed_and_the_run_raises(self, tmp_path):
        manifest = _manifest(n_sims=3)
        directory = tmp_path / "sharded"
        deadline = _Deadline(self.DEADLINE)
        stopped, killed = [], []

        def hook(coordinator, now):
            workers = coordinator._workers
            if not stopped:
                late = workers["w1"]
                assert late.ready is False
                deadline.arm(coordinator)
                os.kill(late.process.pid, signal.SIGSTOP)
                stopped.append(late.worker_id)
            busy = workers["w0"]
            if not killed and busy.busy_chunk is not None:
                os.kill(busy.process.pid, signal.SIGKILL)
                killed.append(busy.worker_id)

        try:
            with pytest.raises(CampaignError, match="all shard workers died"):
                CampaignRunner(
                    manifest,
                    directory,
                    n_workers=2,
                    lease_ttl=2.0,
                    heartbeat_interval=0.05,
                    tick_hook=hook,
                ).run()
        finally:
            deadline.disarm()
            # Checked first: a run the deadline stopped does not raise.
            assert not deadline.missed, "run() hung on an unready worker"
        assert stopped == ["w1"] and killed == ["w0"]
        exits = {
            r["worker"]: r["returncode"]
            for r in _journaled(directory, "worker_exited")
        }
        assert exits == {"w0": -signal.SIGKILL, "w1": -signal.SIGKILL}
        reference = _reference_bytes(manifest, tmp_path)
        report = CampaignRunner(
            manifest, directory, n_workers=2, heartbeat_interval=0.2
        ).resume()
        assert report.status == "completed"
        assert (directory / AGGREGATE_FILE).read_bytes() == reference


def _long_manifest(n_sims):
    """Full-brake episodes that run to max_time: 30 000 steps each."""
    return CampaignManifest(
        name="shard-long",
        scenario={"kind": "left_turn"},
        comm={"sensor_noise": 0.3},
        planner={"kind": "full_brake"},
        n_sims=n_sims,
        seed=5,
        chunk_size=1,
        config={"max_time": 1500.0},
    )


class TestLongSimulation:
    def test_heartbeats_keep_pace_with_a_long_simulation(self, tmp_path):
        """No gap between a worker's chunk events reaches half a lease TTL.

        One worker runs one 30 000-step episode at the heartbeat interval
        of the test below (0.1 s, lease_ttl 0.5 s).  The simulation drops
        and re-takes the GIL on every random-block refill, which starved
        a heartbeat thread for more than a whole TTL.  The signal timer
        beats within 1.5 intervals (0.15 s) by design; the 0.1 s left
        below half the TTL absorbs scheduling delay, and a failure
        prints the largest gap.
        """
        _long_manifest(1).save(tmp_path / MANIFEST_FILE)
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaign.shard.worker",
                str(tmp_path), "w0", "--heartbeat-interval", "0.1",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=CampaignRunner._worker_env(),
        )
        # A hung worker is killed, which ends the read loop with EOF.
        watchdog = threading.Timer(300.0, worker.kill)
        watchdog.start()
        arrivals = []
        try:
            assert decode_line(worker.stdout.readline())["event"] == "ready"
            worker.stdin.write(
                encode_message(
                    {"cmd": COMMAND_RUN, "chunk": 0, "backoff": asdict(BackoffPolicy())}
                )
            )
            worker.stdin.flush()
            for line in iter(worker.stdout.readline, b""):
                event = decode_line(line)["event"]
                arrivals.append((time.perf_counter(), event))
                if event == "completed":
                    break
            worker.stdin.write(encode_message({"cmd": COMMAND_SHUTDOWN}))
            worker.stdin.flush()
            assert worker.wait(timeout=60) == 0
        finally:
            watchdog.cancel()
            worker.kill()
            worker.wait()
        events = [event for _, event in arrivals]
        assert events[0] == "started" and events[-1] == "completed"
        gaps = [b[0] - a[0] for a, b in zip(arrivals, arrivals[1:])]
        assert max(gaps) < 0.25, (
            f"largest gap {max(gaps):.3f} s over {sum(gaps):.2f} s: {events}"
        )
        assert events.count("heartbeat") >= 2

    def test_simulation_slower_than_lease_ttl_keeps_its_lease(self, tmp_path):
        # Each full-brake episode runs to max_time, several times
        # lease_ttl; only the workers' timer heartbeats keep them alive.
        manifest = _long_manifest(2)
        reference = _reference_bytes(manifest, tmp_path)
        directory = tmp_path / "sharded"
        report = CampaignRunner(
            manifest,
            directory,
            n_workers=2,
            lease_ttl=0.5,
            heartbeat_interval=0.1,
        ).run()
        assert report.status == "completed"
        assert (directory / AGGREGATE_FILE).read_bytes() == reference
        assert _journaled(directory, "lease_expired") == []
        exits = _journaled(directory, "worker_exited")
        assert [r["returncode"] for r in exits] == [0, 0]
        beats = _journaled(directory, "lease_heartbeat")
        # Past the started event, the timer's heartbeats kept both
        # one-simulation chunks alive.
        chunks = [r["chunk"] for r in beats]
        assert chunks.count(0) >= 2 and chunks.count(1) >= 2
        assert all("done" not in r for r in beats)


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
        assert (directory / AGGREGATE_FILE).read_bytes() == reference, (
            _aggregate_report(directory, reference)
        )
        assert campaign_status(directory)["coordinator_epochs"] >= 2
