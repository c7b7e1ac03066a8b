"""The durable campaign runner: journaled chunks over the batch layer.

Execution model
---------------

A campaign partitions its ``n_sims`` batch into fixed chunks (the
manifest defines the partition, so it is part of the fingerprint).  For
each chunk the runner

1. executes the chunk's indices through
   :meth:`~repro.sim.runner.BatchRunner.run_indices_detailed`
   (re-running transiently failed indices with deterministic seeded
   backoff, :func:`run_chunk_attempts`),
2. persists the chunk snapshot atomically (tmp + fsync + rename), then
3. appends a ``chunk_completed`` record to the write-ahead journal.

Because the snapshot is durable *before* the journal record exists, a
crash between the two steps merely re-runs one chunk on resume — and
re-running is harmless, since simulation ``k`` is seeded from child
``k`` of the batch seed regardless of when or where it runs.  The final
aggregate is always computed from the on-disk snapshots, never from
in-memory state, so an interrupted-and-resumed campaign produces
**bit-identical** aggregate bytes to an uninterrupted one.

Progress is a fold of the journal (:class:`CampaignProgress`): one
``absorb`` interprets each record, replay folds the records on disk,
every append folds the record it wrote, and ``status``, ``verify`` and
``metrics.json`` read the fold.

Transports
----------

``n_workers=1`` runs the chunks in this process.  ``n_workers > 1``
runs them on a fleet of ``python -m repro.campaign.shard.worker``
subprocesses: idle workers take chunks from one queue in ascending
order, workers persist the snapshots and report digests over the line
protocol of :mod:`repro.campaign.shard.protocol`, and the runner stays
the only journal writer.  One worker holds a chunk at a time, and the
runner journals a completion only from that worker.  A worker that
dies, or that holds a chunk without a word for ``lease_ttl`` (stopped:
workers heartbeat from a timer) and is SIGKILLed for it, hands its
chunk back to the queue with seeded backoff; a worker not ready
``max(lease_ttl, 10 s)`` after its spawn is SIGKILLed too.  A
SIGKILLed runner resumes by journal replay under a new
``coordinator_started`` epoch.  Both transports run the same
:func:`run_chunk_attempts` and finalise through the same
:func:`finalise_campaign`, so a campaign may be resumed with any worker
count and ends at the same ``aggregate.json`` bytes.

Shutdown: SIGINT/SIGTERM set a flag; in-flight chunks drain, an
``interrupted`` record is journaled, and the report says so (the CLI
exits nonzero).  ``kill -9`` skips all of that — which is exactly what
the journal recovery path is for.
"""

from __future__ import annotations

import math
import os
import selectors
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

import repro
from repro.campaign.backoff import BackoffPolicy
from repro.campaign.builders import build_workload, workload_executor
from repro.campaign.journal import JournalWriter, read_journal, recover_journal
from repro.campaign.manifest import CampaignManifest
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
from repro.campaign.store import atomic_write_json, load_json
from repro.errors import (
    CampaignError,
    FingerprintMismatchError,
    JournalCorruptionError,
    ReproError,
    SerializationError,
)
from repro.obs.fleet import merge_delta
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import resolve_observer
from repro.obs.recorder import TELEMETRY_FILE, FlightRecorder, read_telemetry
from repro.obs.trace import perf_now
from repro.sim.results import AggregateStats, ChunkResult
from repro.sim.runner import valid_timeout_per_sim
from repro.sim.serialization import (
    SCHEMA_VERSION,
    content_digest,
    failure_from_dict,
    failure_to_dict,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "CampaignProgress",
    "CampaignReport",
    "CampaignRunner",
    "campaign_status",
    "chunk_path",
    "finalise_campaign",
    "persist_chunk_snapshot",
    "replay_progress",
    "run_chunk_attempts",
    "verify_campaign",
    "MANIFEST_FILE",
    "JOURNAL_FILE",
    "AGGREGATE_FILE",
    "METRICS_FILE",
]

MANIFEST_FILE = "manifest.json"
JOURNAL_FILE = "journal.jsonl"
AGGREGATE_FILE = "aggregate.json"
#: Operational metrics (chunk wall times, retries) derived from the
#: journal at finalisation.  Deliberately a *separate* file: the
#: aggregate must stay byte-identical across interrupt/resume sequences,
#: and wall-clock numbers never are.
METRICS_FILE = "metrics.json"
_CHUNK_DIR = "chunks"
#: Grace period [s] for a fleet worker to exit after a shutdown command,
#: and (or ``lease_ttl`` if longer) to report ready after its spawn.
_SHUTDOWN_GRACE = 10.0

#: Runs the given indices of the manifest's batch, each once:
#: :func:`~repro.campaign.builders.workload_executor`'s ``execute``,
#: or a flaky or instrumented one in tests.
ChunkExecutor = Callable[[List[int]], ChunkResult]


def chunk_path(directory: Path, chunk: int) -> Path:
    """The atomic snapshot file of chunk ``chunk`` under ``directory``."""
    return directory / _CHUNK_DIR / f"chunk-{chunk:05d}.json"


def persist_chunk_snapshot(
    directory: Path, fingerprint: str, chunk: int, result: ChunkResult
) -> str:
    """Atomically persist one chunk's results; returns the content digest.

    The snapshot layout is canonical (sorted keys, fixed float encoding),
    so any process that runs chunk ``chunk`` of the same manifest —
    in-process runner or shard worker, first run or re-run after a
    crash — writes byte-identical files and computes the same digest.
    That idempotency is what makes a re-run chunk harmless.
    """
    snapshot = {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "chunk": chunk,
        "indices": result.indices,
        "results": {
            str(index): result_to_dict(result.results[index])
            for index in result.indices
            if index in result.results
        },
        "failures": [failure_to_dict(f) for f in result.failures],
    }
    atomic_write_json(snapshot, chunk_path(directory, chunk))
    return content_digest(snapshot)


@dataclass(frozen=True)
class CampaignReport:
    """What a campaign run/resume call accomplished.

    Attributes
    ----------
    status:
        ``"completed"`` — every chunk journaled and the aggregate
        written; ``"interrupted"`` — a drain signal stopped the loop
        early (resume later).
    fingerprint:
        The campaign fingerprint all artifacts carry.
    n_chunks, completed_chunks:
        Partition size and how many chunks are durably journaled.
    chunks_run:
        Chunks this call executed (0 when resuming an already-finished
        campaign).
    n_failed:
        Simulations that irrecoverably failed (final aggregate only;
        0 while interrupted).
    aggregate:
        The :class:`~repro.sim.results.AggregateStats` fields as a dict,
        or ``None`` when interrupted or when every simulation failed.
    results_digest:
        SHA-256 over the canonical per-index result records — the value
        the bit-identity guarantee is stated about (``None`` while
        interrupted).
    """

    status: str
    fingerprint: str
    n_chunks: int
    completed_chunks: int
    chunks_run: int
    n_failed: int = 0
    aggregate: Optional[dict] = None
    results_digest: Optional[str] = None


#: The journal record types about one worker, as the count each bumps
#: in the worker's :attr:`CampaignProgress.workers` entry (``None``:
#: the record sets its pid and liveness).
_WORKER_RECORDS = {
    "worker_spawned": None,
    "worker_exited": None,
    "lease_claimed": "leases",
    "lease_heartbeat": "heartbeats",
    "chunk_completed": "completions",
    "lease_expired": "expirations",
    "chunk_failed": "errors",
}


@dataclass
class CampaignProgress:
    """The fold of a campaign's journal.

    :meth:`absorb` is the only code that interprets a journal record,
    and it never raises: a foreign fingerprint or a second completion
    of a chunk with another digest lands in ``problems`` as the
    exception :func:`replay_progress` raises.  Both transports append
    through :meth:`append`, which folds the record it wrote, so a live
    progress always equals the fold of the journal on disk.

    Units: elapsed [s]
    """

    fingerprint: str
    completed: Dict[int, str] = field(default_factory=dict)  # chunk -> digest
    next_seq: int = 0  # records folded so far
    results_digest: Optional[str] = None  # of campaign_finished
    last_type: Optional[str] = None
    epochs: int = 0  # coordinator_started records
    workers: Dict[str, dict] = field(default_factory=dict)
    expirations: int = 0
    duplicates: int = 0  # completions of an already completed chunk
    retries: Dict[int, int] = field(default_factory=dict)  # chunk -> count
    elapsed: List[float] = field(default_factory=list)  # per completion
    problems: List[CampaignError] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """Whether a ``campaign_finished`` record was folded."""
        return self.results_digest is not None

    @classmethod
    def fold(cls, records: List[dict], fingerprint: str) -> "CampaignProgress":
        """The progress ``records`` describe; never raises."""
        progress = cls(fingerprint=fingerprint)
        for record in records:
            progress.absorb(record)
        return progress

    def append(
        self, journal: JournalWriter, record_type: str, **payload
    ) -> None:
        """Journal one record stamped with the fingerprint, and fold it."""
        record = journal.append(
            record_type, fingerprint=self.fingerprint, **payload
        )
        self.absorb(record)

    def absorb(self, record: dict) -> None:
        """Fold one journal record in."""
        self.next_seq += 1
        record_type = self.last_type = record.get("type")
        seq, recorded = record.get("seq"), record.get("fingerprint")
        if recorded is not None and recorded != self.fingerprint:
            self.problems.append(
                FingerprintMismatchError(
                    f"journal record {seq} carries fingerprint "
                    f"{str(recorded)[:12]}... but the manifest fingerprints "
                    f"to {self.fingerprint[:12]}...; this journal belongs "
                    "to a different workload"
                )
            )
        if record_type == "chunk_completed":
            chunk, digest = record.get("chunk"), str(record.get("digest"))
            if chunk in self.completed:
                self.duplicates += 1
            previous = self.completed.setdefault(chunk, digest)
            if previous != digest:
                self.problems.append(
                    JournalCorruptionError(
                        f"journal record {seq} completes chunk {chunk} with "
                        f"digest {digest[:12]}... but an earlier record "
                        f"journaled {previous[:12]}...; duplicate "
                        "completions must be byte-identical"
                    )
                )
            if isinstance(record.get("elapsed"), (int, float)):
                self.elapsed.append(float(record["elapsed"]))
        elif record_type == "chunk_retry":
            chunk = record.get("chunk", -1)
            self.retries[chunk] = self.retries.get(chunk, 0) + 1
        elif record_type == "campaign_finished":
            self.results_digest = str(record.get("results_digest"))
        elif record_type == "lease_expired":
            self.expirations += 1
        elif record_type == "coordinator_started":
            self.epochs += 1
            for entry in self.workers.values():  # the old fleet is gone
                entry["alive"] = False
        worker = record.get("worker")
        if worker is None or record_type not in _WORKER_RECORDS:
            return
        entry = self.workers.setdefault(
            str(worker),
            {
                "pid": None,
                "alive": False,
                "leases": 0,
                "heartbeats": 0,
                "completions": 0,
                "expirations": 0,
                "errors": 0,
                "last_heartbeat_seq": None,
            },
        )
        if record_type == "worker_spawned":
            entry.update(pid=record.get("pid"), alive=True)
        elif record_type == "worker_exited":
            entry["alive"] = False
        else:
            entry[_WORKER_RECORDS[record_type]] += 1
            if record_type == "lease_heartbeat":
                entry["last_heartbeat_seq"] = seq

    def operational_summary(self) -> dict:
        """Retry counts and the chunk wall-time summary (``metrics.json``).

        ``chunk_retries`` maps chunk index to its ``chunk_retry`` record
        count; ``elapsed`` summarises the ``elapsed`` field of
        ``chunk_completed`` records (``None`` when no chunk carried one —
        journals written before the field existed still parse).
        """
        durations = self.elapsed
        elapsed_summary: Optional[dict] = None
        if durations:
            elapsed_summary = {
                "chunks_timed": len(durations),
                "total_seconds": round(sum(durations), 6),
                "mean_seconds": round(sum(durations) / len(durations), 6),
                "max_seconds": round(max(durations), 6),
            }
        return {
            "chunk_retries": {
                str(k): v for k, v in sorted(self.retries.items())
            },
            "total_retries": sum(self.retries.values()),
            "elapsed": elapsed_summary,
        }


def replay_progress(records: List[dict], fingerprint: str) -> CampaignProgress:
    """Rebuild campaign progress from journal records, or refuse them.

    The fold of ``records``, raising its first problem: a foreign
    fingerprint (:class:`~repro.errors.FingerprintMismatchError`), or a
    duplicate ``chunk_completed`` record whose digest differs from the
    first (:class:`~repro.errors.JournalCorruptionError`: the workload
    is not deterministic, or a snapshot was forged).  Duplicates with
    equal digests, which earlier fleets journaled when they re-ran a
    chunk that was still running, replay idempotently.
    """
    progress = CampaignProgress.fold(records, fingerprint)
    if progress.problems:
        raise progress.problems[0]
    return progress


def run_chunk_attempts(
    execute: ChunkExecutor,
    indices: List[int],
    fingerprint: str,
    chunk: int,
    backoff: BackoffPolicy,
    sleep: Callable[[float], None],
    on_retry: Callable[[int, float], None],
) -> ChunkResult:
    """Execute one chunk, re-running transiently failed indices.

    The one retry rule: both transports call it, and the batch layer
    below attempts each index once.  ``stage == "simulation"`` failures
    are deterministic (same seed, same exception) and kept; indices that
    failed with a worker death or a timeout — only those — are re-run
    with the same seeds, up to ``backoff.max_attempts`` attempts in all,
    and merged.  Before attempt ``a > 1`` it calls ``on_retry(a, delay)``
    and ``sleep(delay)``, ``delay = backoff.delay(fingerprint, chunk,
    a - 1)``.  A failure first seen on attempt ``a`` carries
    ``attempts == a``; a first attempt without transient failures is
    returned as it is.
    """
    first = execute(indices)
    pending = [f.index for f in first.transient_failures]
    if not pending:
        return first
    results = dict(first.results)
    failures = {f.index: f for f in first.failures}
    for attempt in range(2, backoff.max_attempts + 1):
        delay = backoff.delay(fingerprint, chunk, attempt - 1)
        on_retry(attempt, delay)
        sleep(delay)
        retry = execute(pending)
        for index in pending:
            del failures[index]
        results.update(retry.results)
        failures.update(
            (f.index, replace(f, attempts=attempt)) for f in retry.failures
        )
        pending = [f.index for f in retry.transient_failures]
        if not pending:
            break
    return ChunkResult(
        indices=first.indices,
        results=results,
        failures=list(failures.values()),
    )


@dataclass
class _WorkerHandle:
    """Coordinator-side state of one shard worker subprocess.

    Units: last_event [s] (spawn, chunk handed out, or last event
    about the chunk)
    """

    worker_id: str
    process: subprocess.Popen
    buffer: bytes = b""
    ready: bool = False
    alive: bool = True
    busy_chunk: Optional[int] = None
    last_event: float = 0.0

    def silent(self, now: float, ttl: float) -> bool:
        """Whether the worker has held a chunk without a word for ``ttl``.

        Units: now [s], ttl [s]
        """
        return self.busy_chunk is not None and now - self.last_event > ttl


@dataclass
class _LoopState:
    """Mutable per-run state threaded through the fleet event loop.

    It holds the chunk queue: ``pending`` chunks in ascending order and
    the ``retry`` pool of ``(eligible_at [s], chunk)`` for chunks a dead
    worker or a reported error handed back.  A chunk is pending, in the
    pool, held by exactly one busy worker, or completed.  The queue
    methods take ``now``, so tests drive them with a synthetic clock.
    """

    progress: CampaignProgress
    journal: JournalWriter
    backoff: BackoffPolicy
    pending: Deque[int] = field(default_factory=deque)
    retry: List[Tuple[float, int]] = field(default_factory=list)
    #: chunk -> attempts handed out so far, across workers and deaths.
    attempts: Dict[int, int] = field(default_factory=dict)
    #: chunk -> perf_now() at the moment it was handed back, for the
    #: re-dispatch latency metric.
    redispatch_pending: Dict[int, float] = field(default_factory=dict)

    def claim(self, now: float) -> Optional[Tuple[int, int]]:
        """The lowest retry whose backoff has elapsed, else the next
        pending chunk, as ``(chunk, attempt)``; ``None`` if neither.

        Units: now [s]
        """
        eligible = [entry for entry in self.retry if entry[0] <= now]
        if eligible:
            entry = min(eligible, key=lambda item: item[1])
            self.retry.remove(entry)
            chunk = entry[1]
        elif self.pending:
            chunk = self.pending.popleft()
        else:
            return None
        attempt = self.attempts.get(chunk, 0) + 1
        self.attempts[chunk] = attempt
        return chunk, attempt

    def requeue(self, chunk: int, now: float) -> float:
        """Hand a released chunk back after the seeded delay
        ``backoff.delay(fingerprint, chunk, attempt)``; returns it [s].

        Units: now [s]
        """
        delay = self.backoff.delay(
            self.progress.fingerprint,
            chunk,
            max(self.attempts.get(chunk, 0), 1),
        )
        self.retry.append((now + delay, chunk))
        return delay

    def fail(self, chunk: int, now: float) -> float:
        """Requeue a chunk whose worker reported an error; raises
        :class:`~repro.errors.CampaignError` once it has used its
        attempt budget (a chunk that fails every attempt needs a human).

        Units: now [s]
        """
        attempts = self.attempts.get(chunk, 0)
        if attempts >= self.backoff.max_attempts:
            raise CampaignError(
                f"chunk {chunk} failed {attempts} attempts "
                f"(budget {self.backoff.max_attempts}); giving up"
            )
        return self.requeue(chunk, now)

    def append(self, record_type: str, **payload) -> None:
        """Journal one record and fold it (:meth:`CampaignProgress.append`)."""
        self.progress.append(self.journal, record_type, **payload)


#: The fields each worker event must carry, as ``name -> (type,
#: default)``; a field with a ``None`` default is required.  ``float``
#: means a finite, non-negative JSON number.
_EVENT_FIELDS: Dict[str, Dict[str, Tuple[type, object]]] = {
    EVENT_STARTED: {"chunk": (int, None)},
    EVENT_HEARTBEAT: {"chunk": (int, None)},
    EVENT_RETRY: {
        "chunk": (int, None),
        "attempt": (int, None),
        "delay": (float, None),
    },
    EVENT_COMPLETED: {
        "chunk": (int, None),
        "digest": (str, None),
        "n_results": (int, 0),
        "n_failures": (int, 0),
        "elapsed": (float, 0.0),
    },
    EVENT_ERROR: {"chunk": (int, None)},
}


def _field_ok(value: object, kind: type) -> bool:
    if kind is str:
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind is int:
        return isinstance(value, int)
    return math.isfinite(value) and value >= 0.0


class CampaignRunner:
    """Runs a :class:`CampaignManifest` durably inside a directory.

    One class, two transports.  ``n_workers=1`` runs chunks in this
    process; ``n_workers > 1`` runs a fleet of shard worker
    subprocesses fed from one chunk queue.  The lifecycle (start and
    fingerprint refusals, journal replay, drain, finalisation, report) is
    shared, so the two are resume-compatible in both directions and
    produce the same ``aggregate.json`` bytes.

    Parameters
    ----------
    manifest:
        The workload.  Its fingerprint stamps every artifact.
    directory:
        Campaign home: ``manifest.json``, ``journal.jsonl``, ``chunks/``
        and ``aggregate.json`` live here.  One directory, one campaign.
    n_workers:
        ``1`` runs chunks in this process; ``N > 1`` spawns ``N``
        ``python -m repro.campaign.shard.worker`` subprocesses
        (operational — not fingerprinted).
    timeout_per_sim:
        Optional per-simulation time budget [s] forwarded to
        :class:`~repro.sim.runner.BatchRunner`: each index runs in a
        watchdog worker process that is SIGKILLed once its budget
        expires, leaving a transient ``"timeout"`` failure.
    backoff:
        The retry policy for transient (worker/timeout) failures
        (:func:`run_chunk_attempts`, the only retry rule); the fleet
        also draws its re-dispatch delays and its per-chunk error
        budget from it.
    sleep:
        Injectable wait primitive of the in-process transport; tests
        pass a recorder so the backoff schedule is asserted without
        actually sleeping.
    chunk_executor:
        Test hook replacing the batch layer of the in-process transport.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; records chunk
        spans, retry counters, journal fsync latency and the fleet's
        claims and deaths.  Write-only — every campaign artifact except
        ``metrics.json`` is byte-identical with or without it (and
        ``metrics.json`` is derived from the journal, which always
        carries chunk wall times).
    lease_ttl:
        Fleet only: seconds a busy worker may go without an event before
        it is SIGKILLed and its chunk requeued with backoff.  Workers
        heartbeat from a timer while they hold a chunk, so a long
        simulation, watchdog wait or retry backoff does not count as
        silence; a kill spends one of the chunk's attempts.  A worker
        not ready ``max(lease_ttl, 10 s)`` after its spawn is SIGKILLed
        too.
    heartbeat_interval:
        Fleet only: seconds between worker liveness heartbeats (must be
        below ``lease_ttl``).
    tick_hook:
        Test-only callable ``(runner, now) -> None`` invoked once per
        fleet event-loop iteration; the chaos suite uses it to SIGKILL
        or SIGSTOP workers at precise protocol states.
    """

    def __init__(
        self,
        manifest: CampaignManifest,
        directory: Union[str, Path],
        n_workers: int = 1,
        timeout_per_sim: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        chunk_executor: Optional[ChunkExecutor] = None,
        observer=None,
        lease_ttl: float = 30.0,
        heartbeat_interval: float = 1.0,
        tick_hook: Optional[Callable[["CampaignRunner", float], None]] = None,
    ) -> None:
        if not isinstance(n_workers, int) or n_workers < 1:
            raise CampaignError(f"n_workers must be >= 1, got {n_workers!r}")
        if not valid_timeout_per_sim(timeout_per_sim):
            raise CampaignError(
                f"timeout_per_sim must be > 0, got {timeout_per_sim}"
            )
        if not lease_ttl > 0.0:
            raise CampaignError(f"lease_ttl must be > 0, got {lease_ttl}")
        if not heartbeat_interval > 0.0:
            raise CampaignError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        if heartbeat_interval >= lease_ttl:
            raise CampaignError(
                f"heartbeat_interval ({heartbeat_interval}) must be below "
                f"lease_ttl ({lease_ttl}); every healthy lease would expire"
            )
        if chunk_executor is not None and n_workers > 1:
            raise CampaignError(
                "chunk_executor replaces the in-process batch layer; "
                f"it cannot run under n_workers={n_workers}"
            )
        self._manifest = manifest
        self._directory = Path(directory)
        self._fingerprint = manifest.fingerprint
        self._n_workers = n_workers
        self._timeout_per_sim = timeout_per_sim
        self._backoff = backoff if backoff is not None else BackoffPolicy()
        self._sleep = sleep
        self._executor = chunk_executor
        self._obs = resolve_observer(observer)
        self._lease_ttl = lease_ttl
        self._heartbeat_interval = heartbeat_interval
        self._tick_hook = tick_hook
        self._stop_requested = False
        self._recorder: Optional[FlightRecorder] = None
        self._workers: Dict[str, _WorkerHandle] = {}
        # The fleet registry is always on (independent of the optional
        # observer): workers stream metric deltas on their heartbeats
        # and the fleet transport merges them here with exact-sum
        # semantics (see repro.obs.fleet).
        self._fleet = MetricsRegistry()

    @property
    def fleet_registry(self) -> MetricsRegistry:
        """The always-on fleet registry (merged worker deltas)."""
        return self._fleet

    @property
    def manifest(self) -> CampaignManifest:
        """The workload definition."""
        return self._manifest

    @property
    def directory(self) -> Path:
        """The campaign home directory."""
        return self._directory

    @property
    def fingerprint(self) -> str:
        """The manifest's canonical content hash."""
        return self._fingerprint

    def worker_pids(self) -> Dict[str, int]:
        """Live worker ids to OS pids (chaos hooks kill through this)."""
        return {
            handle.worker_id: handle.process.pid
            for handle in self._workers.values()
            if handle.alive
        }

    def request_stop(self) -> None:
        """Ask the run to drain: finish the in-flight chunks, journal an
        ``interrupted`` marker, and return an interrupted report."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        """Start the campaign from scratch.

        Refuses a manifest that cannot be built (before anything touches
        disk, so no unfinishable campaign is journaled), a directory that
        already holds journal records (use :meth:`resume`) or a
        ``manifest.json`` with a different fingerprint (that directory
        belongs to another campaign).
        """
        build_workload(self._manifest)
        journal_path = self._directory / JOURNAL_FILE
        if journal_path.exists():
            records, _ = read_journal(journal_path)
            if records:
                raise CampaignError(
                    f"campaign at {self._directory} was already started "
                    f"({len(records)} journal records); use resume"
                )
        manifest_path = self._directory / MANIFEST_FILE
        if manifest_path.exists():
            existing = CampaignManifest.load(manifest_path)
            if existing.fingerprint != self._fingerprint:
                raise FingerprintMismatchError(
                    f"directory {self._directory} holds manifest "
                    f"{existing.fingerprint[:12]}..., refusing to start "
                    f"{self._fingerprint[:12]}... over it"
                )
        self._directory.mkdir(parents=True, exist_ok=True)
        self._manifest.save(manifest_path)
        return self._open_and_execute([])

    def resume(self) -> CampaignReport:
        """Continue a campaign after a crash, kill, or drain.

        Recovers the journal (truncating a torn final record), refuses a
        manifest whose fingerprint differs from the journaled one, skips
        chunks whose ``chunk_completed`` record survived, and re-runs
        everything else — with any worker count, whichever transport
        wrote the journal.  Already-finished campaigns return the
        existing aggregate without running anything.
        """
        manifest_path = self._directory / MANIFEST_FILE
        if manifest_path.exists():
            on_disk = CampaignManifest.load(manifest_path)
            if on_disk.fingerprint != self._fingerprint:
                raise FingerprintMismatchError(
                    f"manifest at {manifest_path} has fingerprint "
                    f"{on_disk.fingerprint[:12]}... but this runner was "
                    f"built for {self._fingerprint[:12]}...; results from "
                    "different workloads must not be mixed — start a new "
                    "campaign directory instead"
                )
        journal_path = self._directory / JOURNAL_FILE
        if not journal_path.exists():
            raise CampaignError(
                f"no journal at {journal_path}; use run to start a "
                "campaign"
            )
        records = recover_journal(journal_path)
        if not manifest_path.exists():
            # The crash hit between mkdir and manifest.save; re-write it.
            self._directory.mkdir(parents=True, exist_ok=True)
            self._manifest.save(manifest_path)
        return self._open_and_execute(records)

    def _open_and_execute(self, records: List[dict]) -> CampaignReport:
        """Replay ``records``, open the journal after them, and execute."""
        state = replay_progress(records, self._fingerprint)
        with JournalWriter(
            self._directory / JOURNAL_FILE,
            next_seq=state.next_seq,
            observer=self._obs,
        ) as journal:
            if not records:
                state.append(
                    journal,
                    "campaign_started",
                    name=self._manifest.name,
                    n_sims=self._manifest.n_sims,
                    n_chunks=self._manifest.n_chunks,
                )
            return self._execute(state, journal)

    def _execute(
        self, state: CampaignProgress, journal: JournalWriter
    ) -> CampaignReport:
        manifest = self._manifest
        if state.finished:
            return self._report_from_aggregate(state)
        chunks_before = len(state.completed)
        previous_handlers = install_drain_handlers(self.request_stop)
        try:
            if self._n_workers == 1:
                interrupted = self._run_in_process(state, journal)
            else:
                interrupted = self._run_fleet(state, journal)
        finally:
            restore_drain_handlers(previous_handlers)
            # Final frame regardless of how the run ended (finished,
            # drained, or crashed).
            if self._recorder is not None:
                self._recorder.tick(force=True)
        chunks_run = len(state.completed) - chunks_before
        if interrupted:
            state.append(
                journal, "interrupted", completed_chunks=len(state.completed)
            )
            return CampaignReport(
                status="interrupted",
                fingerprint=self._fingerprint,
                n_chunks=manifest.n_chunks,
                completed_chunks=len(state.completed),
                chunks_run=chunks_run,
            )
        return finalise_campaign(
            manifest, self._directory, state, chunks_run, journal
        )

    def _report_from_aggregate(self, state: CampaignProgress) -> CampaignReport:
        document = load_json(self._directory / AGGREGATE_FILE)
        if not isinstance(document, dict):
            raise SerializationError("aggregate document is not an object")
        return CampaignReport(
            status="completed",
            fingerprint=self._fingerprint,
            n_chunks=self._manifest.n_chunks,
            completed_chunks=len(state.completed),
            chunks_run=0,
            n_failed=int(document.get("n_failed", 0)),
            aggregate=document.get("aggregate"),
            results_digest=document.get("results_digest"),
        )

    def _journal_retry(
        self,
        progress: CampaignProgress,
        journal: JournalWriter,
        chunk: int,
        attempt: int,
        delay: float,
        **extra,
    ) -> None:
        progress.append(
            journal,
            "chunk_retry",
            chunk=chunk,
            attempt=attempt,
            delay=delay,
            **extra,
        )
        if self._obs.enabled:
            self._obs.count("campaign.chunk_retries")
            self._obs.instant(
                "campaign.chunk_retry", chunk=chunk, attempt=attempt
            )

    # ------------------------------------------------------------------
    # In-process transport (n_workers == 1)
    # ------------------------------------------------------------------
    def _run_in_process(
        self, state: CampaignProgress, journal: JournalWriter
    ) -> bool:
        """Run every pending chunk here; ``True`` when a drain stopped it."""
        manifest = self._manifest
        # Telemetry sidecar: per-run operational frames (see
        # repro.obs.recorder).  Shares the observer's registry when one
        # is attached, so frames carry engine/channel/shield series
        # too; the campaign.* progress counters below are written
        # unconditionally either way.  Sidecar bytes are never part of
        # the aggregate's bit-identity contract.
        telemetry = (
            self._obs.metrics if self._obs.enabled else MetricsRegistry()
        )
        self._recorder = FlightRecorder(
            telemetry,
            sidecar=self._directory / TELEMETRY_FILE,
            min_interval=1.0,
        )
        for chunk in range(manifest.n_chunks):
            if chunk in state.completed:
                continue
            if self._stop_requested:
                return True
            # Chunk wall time is journaled unconditionally (readers
            # ignore unknown fields; journal bytes are never part of the
            # bit-identity contract) so `repro-campaign status` can
            # summarise elapsed time on plain, untraced runs too.
            handle = (
                self._obs.begin("campaign.chunk", chunk=chunk)
                if self._obs.enabled
                else -1
            )
            started = perf_now()
            chunk_result = run_chunk_attempts(
                self._chunk_executor(),
                manifest.chunk_indices(chunk),
                self._fingerprint,
                chunk,
                self._backoff,
                self._sleep,
                lambda attempt, delay: self._journal_retry(
                    state, journal, chunk, attempt, delay
                ),
            )
            elapsed = max(perf_now() - started, 0.0)
            if self._obs.enabled:
                self._obs.end(handle, n_results=len(chunk_result.results))
                self._obs.observe("campaign.chunk_seconds", elapsed)
            digest = persist_chunk_snapshot(
                self._directory, self._fingerprint, chunk, chunk_result
            )
            state.append(
                journal,
                "chunk_completed",
                chunk=chunk,
                n_results=len(chunk_result.results),
                n_failures=chunk_result.n_failed,
                digest=digest,
                elapsed=round(elapsed, 6),
            )
            telemetry.count("campaign.chunks_completed")
            telemetry.count(
                "campaign.sims_completed", len(chunk_result.results)
            )
            telemetry.count("campaign.sim_failures", chunk_result.n_failed)
            self._recorder.tick()
        return False

    def _chunk_executor(self) -> ChunkExecutor:
        if self._executor is None:
            self._executor = workload_executor(
                self._manifest,
                timeout_per_sim=self._timeout_per_sim,
                observer=(self._obs if self._obs.enabled else None),
            )
        return self._executor

    # ------------------------------------------------------------------
    # Fleet transport (n_workers > 1)
    # ------------------------------------------------------------------
    def _run_fleet(
        self, state: CampaignProgress, journal: JournalWriter
    ) -> bool:
        """Run every pending chunk on a worker fleet; ``True`` if drained.

        The runner stays the campaign's only journal writer: workers
        persist chunk snapshots and report digests over the line
        protocol, and this loop turns the reports into journal records.
        Every record of an epoch is reconstructable from the journal, so
        a SIGKILLed coordinator resumes by replay under a new
        ``coordinator_started`` epoch.
        """
        pending = [
            chunk
            for chunk in range(self._manifest.n_chunks)
            if chunk not in state.completed
        ]
        state.append(
            journal,
            "coordinator_started",
            epoch=state.epochs + 1,
            n_workers=self._n_workers,
            pending_chunks=len(pending),
        )
        if not pending:
            # Every chunk was journaled before the previous coordinator
            # died; only finalisation is left — no workers needed.
            return False
        loop = _LoopState(
            progress=state,
            journal=journal,
            backoff=self._backoff,
            pending=deque(pending),
        )
        selector = selectors.DefaultSelector()
        self._workers = {}
        # The flight recorder snapshots the fleet registry into the
        # telemetry.jsonl sidecar — a per-run operational artifact,
        # never part of the aggregate's bit-identity contract.
        self._recorder = FlightRecorder(
            self._fleet,
            sidecar=self._directory / TELEMETRY_FILE,
            min_interval=max(self._heartbeat_interval, 0.5),
        )
        try:
            for i in range(self._n_workers):
                self._spawn_worker(f"w{i}", selector, loop)
            self._loop(loop, selector)
            self._shutdown_workers(selector, loop)
            return self._stop_requested and self._outstanding(state)
        finally:
            self._kill_remaining_workers()
            selector.close()

    def _outstanding(self, progress: CampaignProgress) -> bool:
        return len(progress.completed) < self._manifest.n_chunks

    def _loop(self, state: _LoopState, selector: selectors.DefaultSelector) -> None:
        poll = max(0.01, min(self._heartbeat_interval, self._lease_ttl / 4.0))
        startup = max(self._lease_ttl, _SHUTDOWN_GRACE)
        while self._outstanding(state.progress):
            if self._stop_requested and self._all_idle():
                return
            for key, _ in selector.select(timeout=poll):
                self._drain_pipe(key.data, selector, state)
            now = perf_now()
            for handle in self._workers.values():
                if handle.alive and (
                    handle.silent(now, self._lease_ttl)
                    or (not handle.ready and now - handle.last_event > startup)
                ):
                    # Hung or stopped, holding a chunk or before ready:
                    # the same path as any other death.
                    self._on_worker_gone(handle, selector, state, "ttl")
            if not any(h.alive for h in self._workers.values()):
                if not self._stop_requested:
                    raise CampaignError(
                        "all shard workers died; the journal is intact — "
                        "resume to re-dispatch the remaining chunks"
                    )
                return
            if not self._stop_requested:
                self._dispatch(state, selector, now)
            if self._recorder is not None:
                self._recorder.tick()
            if self._tick_hook is not None:
                self._tick_hook(self, now)

    def _all_idle(self) -> bool:
        return all(
            handle.busy_chunk is None
            for handle in self._workers.values()
            if handle.alive
        )

    def _worker_command(self, worker_id: str) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro.campaign.shard.worker",
            str(self._directory),
            worker_id,
            "--heartbeat-interval",
            str(self._heartbeat_interval),
        ]
        if self._timeout_per_sim is not None:
            command += ["--timeout-per-sim", str(self._timeout_per_sim)]
        return command

    @staticmethod
    def _worker_env() -> Dict[str, str]:
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + os.pathsep + existing if existing else src_root
            )
        return env

    def _spawn_worker(
        self,
        worker_id: str,
        selector: selectors.DefaultSelector,
        state: _LoopState,
    ) -> None:
        process = subprocess.Popen(
            self._worker_command(worker_id),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self._worker_env(),
        )
        handle = _WorkerHandle(
            worker_id=worker_id, process=process, last_event=perf_now()
        )
        self._workers[worker_id] = handle
        os.set_blocking(process.stdout.fileno(), False)
        selector.register(process.stdout.fileno(), selectors.EVENT_READ, handle)
        state.append("worker_spawned", worker=worker_id, pid=process.pid)
        if self._obs.enabled:
            self._obs.count("shard.workers_spawned")

    def _drain_pipe(
        self,
        handle: _WorkerHandle,
        selector: selectors.DefaultSelector,
        state: _LoopState,
    ) -> None:
        try:
            data = os.read(handle.process.stdout.fileno(), 65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if data == b"":
            self._on_worker_gone(handle, selector, state)
            return
        handle.buffer += data
        while b"\n" in handle.buffer:
            line, handle.buffer = handle.buffer.split(b"\n", 1)
            event = decode_line(line)
            if event is not None:
                self._handle_event(handle, event, state)

    def _on_worker_gone(
        self,
        handle: _WorkerHandle,
        selector: selectors.DefaultSelector,
        state: _LoopState,
        reason: str = "worker_exited",
    ) -> None:
        """Reap a dead (or, for ``reason="ttl"``, silent) worker and
        requeue the chunk it held; a second call is a no-op."""
        if not handle.alive:
            return
        chunk, handle.busy_chunk = handle.busy_chunk, None
        self._reap(handle, selector, state)
        if chunk is not None:
            now = perf_now()
            # A hang spends the budget like an error: a chunk that
            # silences every worker it reaches raises for itself.
            release = state.fail if reason == "ttl" else state.requeue
            delay = release(chunk, now)
            state.append(
                "lease_expired",
                worker=handle.worker_id,
                chunk=chunk,
                attempt=state.attempts[chunk],
                delay=delay,
                reason=reason,
            )
            state.redispatch_pending[chunk] = now
            if self._obs.enabled:
                self._obs.count("shard.lease_expirations")
        if self._obs.enabled:
            self._obs.count("shard.worker_deaths")

    def _reap(
        self,
        handle: _WorkerHandle,
        selector: selectors.DefaultSelector,
        state: _LoopState,
    ) -> None:
        """Stop watching the worker's stdout, SIGKILL it if it still
        runs, and journal its exit."""
        handle.alive = False
        fd = handle.process.stdout.fileno()
        if fd in selector.get_map():
            selector.unregister(fd)
        if handle.process.poll() is None:
            handle.process.kill()
        state.append(
            "worker_exited",
            worker=handle.worker_id,
            returncode=handle.process.wait(),
        )
        self._fleet.gauge("fleet.worker_up", 0.0, worker=handle.worker_id)

    def _shutdown_workers(
        self, selector: selectors.DefaultSelector, state: _LoopState
    ) -> None:
        """Graceful fleet shutdown; journals every worker's exit."""
        for handle in self._workers.values():
            if not handle.alive:
                continue
            try:
                handle.process.stdin.write(
                    encode_message({"cmd": COMMAND_SHUTDOWN})
                )
                handle.process.stdin.flush()
                handle.process.stdin.close()
            except (BrokenPipeError, OSError, ValueError):  # safelint: disable=SFL010 - best-effort goodbye; wait() below settles the worker either way
                pass
        for handle in self._workers.values():
            if not handle.alive:
                continue
            try:
                handle.process.wait(timeout=_SHUTDOWN_GRACE)
            except subprocess.TimeoutExpired:
                handle.process.kill()
            self._reap(handle, selector, state)

    def _kill_remaining_workers(self) -> None:
        """Last-resort cleanup: no child outlives the runner call."""
        for handle in self._workers.values():
            if handle.process.poll() is None:
                handle.process.kill()
                handle.process.wait()

    def _accepted(self, handle: _WorkerHandle, event: dict) -> bool:
        """Whether every field the event's kind uses has its type and,
        for an event about a chunk, the worker holds that chunk."""
        fields = _EVENT_FIELDS.get(event.get("event"), {})
        for key, (kind, default) in fields.items():
            if not _field_ok(event.get(key, default), kind):
                return False
        return "chunk" not in fields or event["chunk"] == handle.busy_chunk

    def _handle_event(
        self, handle: _WorkerHandle, event: dict, state: _LoopState
    ) -> None:
        """Act on one worker event.

        A malformed event, and an event about a chunk the worker does
        not hold (a stray or stale ``started``, ``heartbeat``,
        ``retry``, ``completed`` or ``error``), are dropped whole: no
        journal record, no renewal of ``last_event``, no merged
        metrics.  If the worker goes silent over it, the ``lease_ttl``
        kill covers its chunk.  One worker holds a chunk at a time, so
        no chunk is journaled complete twice.
        """
        if not self._accepted(handle, event):
            return
        kind = event.get("event")
        now = perf_now()
        self._absorb_worker_metrics(handle, event)
        if kind == EVENT_READY:
            handle.ready = True
            self._fleet.gauge(
                "fleet.worker_up", 1.0, worker=handle.worker_id
            )
        elif kind in (EVENT_STARTED, EVENT_HEARTBEAT, EVENT_RETRY):
            handle.last_event = now
            if kind == EVENT_RETRY:
                self._journal_retry(
                    state.progress,
                    state.journal,
                    event["chunk"],
                    event["attempt"],
                    float(event["delay"]),
                    worker=handle.worker_id,
                )
            else:
                state.append(
                    "lease_heartbeat",
                    worker=handle.worker_id,
                    chunk=event["chunk"],
                )
        elif kind == EVENT_COMPLETED:
            self._handle_completed(handle, event, state)
        elif kind == EVENT_ERROR:
            self._handle_error(handle, event, state, now)

    def _absorb_worker_metrics(
        self, handle: _WorkerHandle, event: dict
    ) -> None:
        """Merge a piggybacked metric delta into the fleet registry.

        Every merged counter lands twice — in the unlabelled fleet
        total and in a ``worker=<id>`` labelled series — which is the
        structural form of the exact-sum acceptance invariant:
        ``fleet.x == sum over workers of fleet.x{worker=w}``.
        """
        delta = event.get("metrics")
        if not isinstance(delta, dict):
            return
        merge_delta(self._fleet, delta, worker=handle.worker_id)
        self._fleet.count("fleet.metric_reports")
        self._fleet.count("fleet.metric_reports", worker=handle.worker_id)
        self._fleet.gauge("fleet.worker_up", 1.0, worker=handle.worker_id)

    def _handle_completed(
        self, handle: _WorkerHandle, event: dict, state: _LoopState
    ) -> None:
        """The holder persisted its chunk's snapshot: journal the digest."""
        elapsed = float(event.get("elapsed", 0.0))
        handle.busy_chunk = None
        state.append(
            "chunk_completed",
            chunk=event["chunk"],
            n_results=event.get("n_results", 0),
            n_failures=event.get("n_failures", 0),
            digest=event["digest"],
            elapsed=elapsed,
            worker=handle.worker_id,
        )
        if self._obs.enabled:
            self._obs.count("shard.chunks_completed")
            self._obs.observe("shard.chunk_seconds", elapsed)

    def _handle_error(
        self,
        handle: _WorkerHandle,
        event: dict,
        state: _LoopState,
        now: float,
    ) -> None:
        """An exception escaped the holder's executor: spend the chunk's
        attempt budget and re-dispatch with backoff."""
        chunk, handle.busy_chunk = handle.busy_chunk, None
        delay = state.fail(chunk, now)
        state.append(
            "chunk_failed",
            worker=handle.worker_id,
            chunk=chunk,
            error_type=str(event.get("error_type", "unknown")),
            message=str(event.get("message", ""))[:500],
            attempt=state.attempts.get(chunk, 0),
            delay=delay,
        )
        state.redispatch_pending[chunk] = now
        if self._obs.enabled:
            self._obs.count("shard.chunk_errors")

    def _dispatch(
        self,
        state: _LoopState,
        selector: selectors.DefaultSelector,
        now: float,
    ) -> None:
        for handle in self._workers.values():
            if not handle.alive or not handle.ready:
                continue
            if handle.busy_chunk is not None:
                continue
            claimed = state.claim(now)
            if claimed is None:
                return
            chunk, attempt = claimed
            handle.busy_chunk = chunk
            handle.last_event = now
            state.append(
                "lease_claimed",
                worker=handle.worker_id,
                chunk=chunk,
                attempt=attempt,
            )
            if self._obs.enabled:
                self._obs.count("shard.lease_claims")
            issued_at = state.redispatch_pending.pop(chunk, None)
            if issued_at is not None and self._obs.enabled:
                self._obs.observe(
                    "shard.redispatch_seconds", max(now - issued_at, 0.0)
                )
            try:
                handle.process.stdin.write(
                    encode_message(
                        {
                            "cmd": COMMAND_RUN,
                            "chunk": chunk,
                            "backoff": asdict(self._backoff),
                        }
                    )
                )
                handle.process.stdin.flush()
            except (BrokenPipeError, OSError, ValueError):
                # The worker died before reading the command: the death
                # path hands the chunk back.
                self._on_worker_gone(handle, selector, state)


# ----------------------------------------------------------------------
# Drain-on-signal plumbing
# ----------------------------------------------------------------------
def install_drain_handlers(request_stop: Callable[[], None]) -> Optional[dict]:
    """Route SIGINT/SIGTERM to ``request_stop``; ``None`` off the main thread."""

    def handler(signum, frame):  # pragma: no cover - exercised via CLI
        request_stop()

    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handler)
    except ValueError:
        # Not the main thread (e.g. pytest-xdist worker): graceful
        # drain is only reachable via request_stop() there.
        for signum, old in previous.items():
            signal.signal(signum, old)
        return None
    return previous


def restore_drain_handlers(previous: Optional[dict]) -> None:
    """Undo :func:`install_drain_handlers`."""
    if previous is None:
        return
    for signum, old in previous.items():
        signal.signal(signum, old)


# ----------------------------------------------------------------------
# Finalisation (shared by both transports)
# ----------------------------------------------------------------------
def _read_snapshots(
    manifest: CampaignManifest, directory: Path, completed: Dict[int, str]
) -> Tuple[List[Optional[dict]], List[dict], List[ReproError]]:
    """Read the completed chunks' snapshots back, checking each.

    The one snapshot reader of :func:`finalise_campaign` and
    :func:`verify_campaign`.  Returns each index's result record
    (``None`` where none: ``content_digest(per_index)`` is the
    ``results_digest``), the failure records in index order, and one
    exception per problem.  A snapshot that is missing, not an object
    or not its journaled digest is skipped.
    """
    per_index: List[Optional[dict]] = [None] * manifest.n_sims
    failures: List[dict] = []
    problems: List[ReproError] = []
    for chunk, digest in sorted(completed.items()):
        path = chunk_path(directory, chunk)
        try:
            snapshot = load_json(path)
            if not isinstance(snapshot, dict):
                raise SerializationError(
                    f"chunk snapshot {path} is not an object"
                )
            if content_digest(snapshot) != digest:
                raise CampaignError(
                    f"chunk snapshot {path} does not match its journaled "
                    "digest; the file was modified after it was journaled"
                )
            expected_indices = manifest.chunk_indices(chunk)
        except (CampaignError, SerializationError) as exc:
            problems.append(exc)
            continue
        if snapshot.get("fingerprint") != manifest.fingerprint:
            problems.append(
                CampaignError(f"chunk snapshot {path} fingerprint mismatch")
            )
        if snapshot.get("indices") != expected_indices:
            problems.append(
                CampaignError(
                    f"chunk snapshot {path} covers indices "
                    f"{snapshot.get('indices')} but the manifest assigns "
                    f"{expected_indices}"
                )
            )
        for key, record in snapshot.get("results", {}).items():
            per_index[int(key)] = record
        for failure in snapshot.get("failures", []):
            try:
                failure_from_dict(failure)
            except SerializationError as exc:
                problems.append(
                    SerializationError(f"chunk snapshot {path}: {exc}")
                )
            failures.append(failure)
    failures.sort(key=lambda f: int(f.get("index", -1)))
    return per_index, failures, problems


def finalise_campaign(
    manifest: CampaignManifest,
    directory: Union[str, Path],
    state: CampaignProgress,
    chunks_run: int,
    journal: JournalWriter,
) -> CampaignReport:
    """Aggregate from the on-disk snapshots and journal completion.

    Reading the snapshots back (instead of using in-memory results)
    means an uninterrupted run, any interrupt/resume sequence, and any
    worker count aggregate from byte-identical inputs — the aggregate
    document depends only on the manifest.  Raises the first problem
    :func:`_read_snapshots` finds.
    """
    directory = Path(directory)
    fingerprint = manifest.fingerprint
    per_index, failures, problems = _read_snapshots(
        manifest, directory, state.completed
    )
    if problems:
        raise problems[0]
    results_digest = content_digest(per_index)
    completed = [
        result_from_dict(record)
        for record in per_index
        if record is not None
    ]
    aggregate: Optional[dict] = None
    if completed:
        stats = AggregateStats.from_results(completed)
        aggregate = {
            "n_runs": stats.n_runs,
            "n_safe": stats.n_safe,
            "n_reached": stats.n_reached,
            "mean_reaching_time": stats.mean_reaching_time,
            "mean_eta": stats.mean_eta,
            "mean_emergency_frequency": stats.mean_emergency_frequency,
            "safe_rate": stats.safe_rate,
        }
    document = {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "name": manifest.name,
        "n_sims": manifest.n_sims,
        "n_failed": len(failures),
        "results_digest": results_digest,
        "aggregate": aggregate,
        "failures": failures,
    }
    atomic_write_json(document, directory / AGGREGATE_FILE)
    state.append(
        journal,
        "campaign_finished",
        results_digest=results_digest,
        n_failed=len(failures),
    )
    write_campaign_metrics(manifest, directory, state)
    return CampaignReport(
        status="completed",
        fingerprint=fingerprint,
        n_chunks=manifest.n_chunks,
        completed_chunks=len(state.completed),
        chunks_run=chunks_run,
        n_failed=len(failures),
        aggregate=aggregate,
        results_digest=results_digest,
    )


def write_campaign_metrics(
    manifest: CampaignManifest,
    directory: Union[str, Path],
    progress: CampaignProgress,
) -> None:
    """Write ``metrics.json`` from the operational fields of the fold.

    Kept out of ``aggregate.json`` on purpose: wall-clock numbers
    differ between an uninterrupted run and an interrupt/resume
    sequence, and the aggregate's byte-identity guarantee must not.
    """
    document = {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": manifest.fingerprint,
        "name": manifest.name,
        **progress.operational_summary(),
    }
    atomic_write_json(document, Path(directory) / METRICS_FILE)


# ----------------------------------------------------------------------
# Inspection helpers (read-only; safe on live or damaged campaigns)
# ----------------------------------------------------------------------
def campaign_status(directory: Union[str, Path]) -> dict:
    """Progress summary of a campaign directory (read-only).

    Read from the fold of the journal, so it works on a live, killed,
    or damaged campaign and never raises over a record (a torn journal
    tail is reported, not repaired).  Besides progress, the summary
    carries the journal's operational fields — per-chunk retry counts
    and an elapsed wall-time summary over completed chunks — and the
    fleet's forensics: coordinator epochs, per-worker
    lease/heartbeat/completion counts, lease expirations, duplicate
    completions (journals of earlier fleets can hold them), and the
    newest telemetry frame (``workers`` is empty for in-process runs).
    """
    directory = Path(directory)
    manifest = CampaignManifest.load(directory / MANIFEST_FILE)
    records, torn = read_journal(directory / JOURNAL_FILE)
    progress = CampaignProgress.fold(records, manifest.fingerprint)
    status = {
        "name": manifest.name,
        "fingerprint": manifest.fingerprint,
        "n_sims": manifest.n_sims,
        "n_chunks": manifest.n_chunks,
        "completed_chunks": len(progress.completed),
        "journal_records": progress.next_seq,
        "torn_tail": torn,
        "finished": progress.finished,
        "interrupted": progress.last_type == "interrupted",
        "coordinator_epochs": progress.epochs,
        "workers": progress.workers,
        "lease_expirations": progress.expirations,
        "duplicate_completions": progress.duplicates,
        "telemetry": _telemetry_summary(directory),
    }
    status.update(progress.operational_summary())
    return status


def _telemetry_summary(directory: Path) -> Optional[dict]:
    """The newest telemetry frame of a campaign, for ``status``.

    ``None`` when the campaign never wrote one.  Otherwise the frame
    count and the newest frame's counters, gauges and histograms
    (fleet counters and per-worker liveness gauges on fleet runs).
    """
    frames = read_telemetry(directory / TELEMETRY_FILE)
    if not frames:
        return None
    newest = frames[-1]
    return {
        "frames": len(frames),
        "last_wall": newest.get("wall"),
        "counters": dict(newest.get("counters", {})),
        "gauges": dict(newest.get("gauges", {})),
        "histograms": dict(newest.get("histograms", {})),
    }


def verify_campaign(directory: Union[str, Path]) -> dict:
    """Cross-check every artifact of a campaign directory.

    Verifies that the journal parses and folds without a problem (every
    record carries the manifest's fingerprint, duplicate completions are
    byte-identical), that every journaled chunk snapshot exists with a
    matching content digest, fingerprint and the exact index set the
    manifest assigns to that chunk, and — when the campaign finished —
    that the aggregate document's digest matches a recomputation from
    the snapshots.

    Returns ``{"ok": bool, "problems": [str, ...], ...}`` rather than
    raising, so the CLI can print every problem at once.
    """
    directory = Path(directory)
    problems: List[str] = []
    manifest = CampaignManifest.load(directory / MANIFEST_FILE)
    fingerprint = manifest.fingerprint
    journal_path = directory / JOURNAL_FILE
    records: List[dict] = []
    torn = False
    if not journal_path.exists():
        problems.append(f"missing journal {journal_path}")
    else:
        try:
            records, torn = read_journal(journal_path)
        except CampaignError as exc:
            problems.append(str(exc))
    if torn:
        problems.append(
            "journal has a torn final record (resume will truncate it)"
        )
    progress = CampaignProgress.fold(records, fingerprint)
    per_index, _, snapshot_problems = _read_snapshots(
        manifest, directory, progress.completed
    )
    problems.extend(str(p) for p in progress.problems + snapshot_problems)
    if progress.finished:
        if len(progress.completed) != manifest.n_chunks:
            problems.append(
                f"campaign_finished journaled with only "
                f"{len(progress.completed)}/{manifest.n_chunks} "
                "chunk_completed records"
            )
        else:
            recomputed = content_digest(per_index)
            if recomputed != progress.results_digest:
                problems.append(
                    "journaled results digest does not match a "
                    "recomputation from the chunk snapshots"
                )
            aggregate_path = directory / AGGREGATE_FILE
            try:
                document = load_json(aggregate_path)
            except SerializationError as exc:
                problems.append(str(exc))
            else:
                if (
                    not isinstance(document, dict)
                    or document.get("results_digest")
                    != progress.results_digest
                    or document.get("fingerprint") != fingerprint
                ):
                    problems.append(
                        f"aggregate document {aggregate_path} does not "
                        "match the journaled digest/fingerprint"
                    )
    return {
        "ok": not problems,
        "problems": problems,
        "fingerprint": fingerprint,
        "n_chunks": manifest.n_chunks,
        "completed_chunks": len(progress.completed),
        "finished": progress.finished,
    }
