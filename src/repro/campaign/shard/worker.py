"""The shard worker: runs leased chunks, persists snapshots, heartbeats.

Spawned by the fleet transport of
:class:`~repro.campaign.runner.CampaignRunner` as ``python -m
repro.campaign.shard.worker <directory> <worker-id>``.  The worker is deliberately dumb: it owns no
scheduling state, never touches the journal, and trusts nothing beyond
the manifest on disk.  Its whole contract is

1. read one command line from stdin,
2. run the named chunk with the *manifest's* seeds (simulation ``k``
   uses child ``k`` of the batch seed — which worker runs it is
   irrelevant by construction), through the same
   :func:`~repro.campaign.runner.run_chunk_attempts` rule as the
   in-process transport, reporting each transient retry,
3. atomically persist the snapshot via the same
   :func:`~repro.campaign.runner.persist_chunk_snapshot` the in-process
   transport uses, then report the content digest,
4. emit heartbeats *during* the chunk whenever the chunk has been
   quiet for the interval, so only a stopped or dead worker goes
   silent for the runner's ``lease_ttl``; metric deltas ride on the
   ``retry``, ``completed`` and ``error`` events.  The heartbeat is a
   ``SIGALRM`` handler on a ``setitimer`` interval, so it runs in the
   main thread between the simulation's own bytecodes: a timer thread
   was starved for several heartbeat intervals by a simulation that
   drops and re-takes the GIL every few hundred microseconds (each
   random-block refill is a numpy call).

Crash-anywhere safety: the worker can be SIGKILLed at any byte.  Before
the snapshot rename there is nothing to clean up; after it, the
re-dispatched run writes byte-identical content.  The runner journals
a ``completed`` event only while this worker holds the chunk, so a
chunk is journaled complete once.  An orphaned worker (runner died)
sees EOF on stdin and exits — and if it was mid-chunk, its final atomic
snapshot write is harmless for the same reason.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.builders import workload_executor
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    MANIFEST_FILE,
    persist_chunk_snapshot,
    run_chunk_attempts,
)
from repro.campaign.shard.protocol import (
    COMMAND_RUN,
    COMMAND_SHUTDOWN,
    EVENT_COMPLETED,
    EVENT_ERROR,
    EVENT_HEARTBEAT,
    EVENT_READY,
    EVENT_RETRY,
    EVENT_STARTED,
    decode_line,
    encode_message,
)
from repro.obs.fleet import delta_is_empty, empty_snapshot, snapshot_delta
from repro.obs.observer import MetricsOnlyObserver
from repro.obs.trace import perf_now

__all__ = ["worker_main", "build_parser"]


def _emit(message: dict) -> None:
    sys.stdout.buffer.write(encode_message(message))
    sys.stdout.buffer.flush()


def worker_main(
    directory: Path,
    worker_id: str,
    heartbeat_interval: float = 1.0,
    timeout_per_sim: Optional[float] = None,
) -> int:
    """Run the worker loop until shutdown or stdin EOF; returns 0."""
    manifest = CampaignManifest.load(directory / MANIFEST_FILE)
    fingerprint = manifest.fingerprint
    # The worker's own registry: engine/channel/shield series via the
    # in-process batch path plus worker.* bookkeeping.  Deltas against
    # the last reported snapshot piggyback on retry/completed/error
    # events so the runner can merge a fleet-wide view without a
    # second channel (see repro.obs.fleet).  Metrics-only: a tracer
    # would grow one record per engine step for the campaign's
    # lifetime.
    observer = MetricsOnlyObserver()
    reported = empty_snapshot()
    # Every event is written under this lock; the heartbeat handler
    # (module docstring, point 4) only tries it, since the main thread
    # it interrupts may hold it mid-write.
    lock = threading.Lock()
    beat = {"chunk": None, "written": perf_now()}

    def send(message: dict) -> None:
        with lock:
            _emit(message)
            beat["written"] = perf_now()

    def pulse(signum, frame) -> None:
        chunk = beat["chunk"]
        if chunk is None or perf_now() - beat["written"] < heartbeat_interval:
            return
        # Interrupted inside send(): skip this beat, that write is one.
        if not lock.acquire(blocking=False):
            return
        try:
            _emit({"event": EVENT_HEARTBEAT, "worker": worker_id, "chunk": chunk})
            beat["written"] = perf_now()
        except OSError:
            # The runner is gone (a broken pipe): stop beating rather
            # than raise into the simulation; stdin EOF ends the worker.
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        finally:
            lock.release()

    signal.signal(signal.SIGALRM, pulse)
    period = heartbeat_interval / 2.0

    def emit_with_metrics(message: dict) -> None:
        nonlocal reported
        current = observer.metrics.snapshot()
        delta = snapshot_delta(reported, current)
        reported = current
        if not delta_is_empty(delta):
            message["metrics"] = delta
        send(message)

    execute = workload_executor(
        manifest,
        timeout_per_sim=timeout_per_sim,
        observer=observer,
    )
    send(
        {
            "event": EVENT_READY,
            "worker": worker_id,
            "pid": os.getpid(),
            "fingerprint": fingerprint,
        }
    )
    stdin = sys.stdin.buffer
    while True:
        line = stdin.readline()
        if not line:
            # Runner gone (EOF): orphaned workers exit instead of
            # computing results nobody will journal.
            return 0
        command = decode_line(line)
        if command is None:
            continue
        if command.get("cmd") == COMMAND_SHUTDOWN:
            return 0
        if command.get("cmd") != COMMAND_RUN:
            continue
        chunk = int(command["chunk"])
        send({"event": EVENT_STARTED, "worker": worker_id, "chunk": chunk})
        beat["chunk"] = chunk
        # Armed for the chunk only: an armed timer outliving the loop
        # would kill the exiting interpreter, which restores SIGALRM's
        # default action.
        signal.setitimer(signal.ITIMER_REAL, period, period)

        def on_retry(attempt: int, delay: float) -> None:
            emit_with_metrics(
                {
                    "event": EVENT_RETRY,
                    "worker": worker_id,
                    "chunk": chunk,
                    "attempt": attempt,
                    "delay": delay,
                }
            )

        # Fault boundary: a chunk that blows up in the batch layer is
        # reported as an error event and re-dispatched by the runner;
        # the worker itself survives to run other chunks.
        try:
            started = perf_now()
            result = run_chunk_attempts(
                execute,
                manifest.chunk_indices(chunk),
                fingerprint,
                chunk,
                BackoffPolicy(**command["backoff"]),
                time.sleep,
                on_retry,
            )
            elapsed = max(perf_now() - started, 0.0)
            digest = persist_chunk_snapshot(
                directory, fingerprint, chunk, result
            )
            observer.count("worker.chunks_completed")
            # Every index that ran to its end: a result or a
            # simulation error, not a transient failure.
            observer.count(
                "worker.sims_completed",
                result.n_total - len(result.transient_failures),
            )
            observer.observe("worker.chunk_seconds", elapsed)
            beat["chunk"] = None
            emit_with_metrics(
                {
                    "event": EVENT_COMPLETED,
                    "worker": worker_id,
                    "chunk": chunk,
                    "digest": digest,
                    "n_results": len(result.results),
                    "n_failures": result.n_failed,
                    "elapsed": round(elapsed, 6),
                }
            )
        except Exception as exc:  # safelint: disable=SFL003 - reported as error event; the runner re-dispatches
            observer.count("worker.chunk_errors")
            beat["chunk"] = None
            emit_with_metrics(
                {
                    "event": EVENT_ERROR,
                    "worker": worker_id,
                    "chunk": chunk,
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                }
            )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.campaign.shard.worker`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-shard-worker",
        description="Shard worker process (spawned by a campaign runner).",
    )
    parser.add_argument("directory", help="campaign directory")
    parser.add_argument("worker_id", help="worker id assigned by the runner")
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between liveness heartbeats during a chunk",
    )
    parser.add_argument(
        "--timeout-per-sim",
        type=float,
        default=None,
        help="per-simulation time budget in seconds",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return worker_main(
        Path(args.directory),
        args.worker_id,
        heartbeat_interval=args.heartbeat_interval,
        timeout_per_sim=args.timeout_per_sim,
    )


if __name__ == "__main__":
    sys.exit(main())
