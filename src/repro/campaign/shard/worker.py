"""The shard worker: runs leased chunks, persists snapshots, heartbeats.

Spawned by the coordinator as ``python -m repro.campaign.shard.worker
<directory> <worker-id>``.  The worker is deliberately dumb: it owns no
scheduling state, never touches the journal, and trusts nothing beyond
the manifest on disk.  Its whole contract is

1. read one command line from stdin,
2. run the named chunk with the *manifest's* seeds (simulation ``k``
   uses child ``k`` of the batch seed — which worker runs it is
   irrelevant by construction),
3. atomically persist the snapshot via the same
   :func:`~repro.campaign.runner.persist_chunk_snapshot` the sequential
   runner uses, then report the content digest,
4. emit throttled heartbeats *during* the chunk so the coordinator can
   tell a long chunk from a dead worker.

Crash-anywhere safety: the worker can be SIGKILLed at any byte.  Before
the snapshot rename there is nothing to clean up; after it, the
re-dispatched duplicate writes byte-identical content.  An orphaned
worker (coordinator died) sees EOF on stdin and exits — and if it was
mid-chunk, its final atomic snapshot write is harmless for the same
reason.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign.builders import workload_executor
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import MANIFEST_FILE, persist_chunk_snapshot
from repro.campaign.shard.protocol import (
    COMMAND_RUN,
    COMMAND_SHUTDOWN,
    EVENT_COMPLETED,
    EVENT_ERROR,
    EVENT_HEARTBEAT,
    EVENT_READY,
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
    max_retries: int = 2,
    timeout_per_sim: Optional[float] = None,
) -> int:
    """Run the worker loop until shutdown or stdin EOF; returns 0."""
    manifest = CampaignManifest.load(directory / MANIFEST_FILE)
    fingerprint = manifest.fingerprint
    # The worker's own registry: engine/channel/shield series via the
    # in-process batch path plus worker.* bookkeeping.  Deltas against
    # the last reported snapshot piggyback on heartbeat/completed
    # events so the coordinator can merge a fleet-wide view without a
    # second channel (see repro.obs.fleet).  Metrics-only: a tracer
    # would grow one record per engine step for the campaign's
    # lifetime.
    observer = MetricsOnlyObserver()
    reported = empty_snapshot()

    def metric_delta() -> Optional[dict]:
        nonlocal reported
        current = observer.metrics.snapshot()
        delta = snapshot_delta(reported, current)
        reported = current
        return None if delta_is_empty(delta) else delta

    def emit_with_metrics(message: dict) -> None:
        delta = metric_delta()
        if delta is not None:
            message["metrics"] = delta
        _emit(message)

    execute = workload_executor(
        manifest,
        max_retries=max_retries,
        timeout_per_sim=timeout_per_sim,
        observer=observer,
    )
    _emit(
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
            # Coordinator gone (EOF): orphaned workers exit instead of
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
        _emit({"event": EVENT_STARTED, "worker": worker_id, "chunk": chunk})
        done = 0
        last_beat = perf_now()

        def progress(index: int) -> None:
            nonlocal done, last_beat
            done += 1
            observer.count("worker.sims_completed")
            now = perf_now()
            if now - last_beat >= heartbeat_interval:
                last_beat = now
                emit_with_metrics(
                    {
                        "event": EVENT_HEARTBEAT,
                        "worker": worker_id,
                        "chunk": chunk,
                        "done": done,
                    }
                )

        # Fault boundary: a chunk that blows up in the batch layer is
        # reported as an error event and re-dispatched by the
        # coordinator; the worker itself survives to run other chunks.
        try:
            started = perf_now()
            result = execute(
                manifest.chunk_indices(chunk),
                manifest.n_sims,
                manifest.seed,
                progress,
            )
            elapsed = max(perf_now() - started, 0.0)
            if result.transient_failures:
                failed = sorted(
                    {failure.index for failure in result.transient_failures}
                )
                observer.count("worker.chunk_errors")
                emit_with_metrics(
                    {
                        "event": EVENT_ERROR,
                        "worker": worker_id,
                        "chunk": chunk,
                        "error_type": "TransientChunkFailure",
                        "message": f"transient failures at indices {failed}",
                    }
                )
                continue
            digest = persist_chunk_snapshot(
                directory, fingerprint, chunk, result
            )
            observer.count("worker.chunks_completed")
            observer.observe("worker.chunk_seconds", elapsed)
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
        except Exception as exc:  # safelint: disable=SFL003 - reported as error event; coordinator re-dispatches
            observer.count("worker.chunk_errors")
            emit_with_metrics(
                {
                    "event": EVENT_ERROR,
                    "worker": worker_id,
                    "chunk": chunk,
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                }
            )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.campaign.shard.worker`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-shard-worker",
        description="Shard worker process (spawned by the coordinator).",
    )
    parser.add_argument("directory", help="campaign directory")
    parser.add_argument("worker_id", help="worker id assigned by the coordinator")
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between liveness heartbeats during a chunk",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="per-index retry budget inside the batch layer",
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
        max_retries=args.max_retries,
        timeout_per_sim=args.timeout_per_sim,
    )


if __name__ == "__main__":
    sys.exit(main())
