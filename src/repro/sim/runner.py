"""Seeded, crash-tolerant batch execution over one engine.

The paper's tables compare several planner configurations on *identical*
workloads; the runner guarantees that by deriving every stochastic
component of simulation ``k`` from child ``k`` of the batch seed — so two
batches with the same seed see the same oncoming-vehicle behaviour, the
same message drops and the same sensor noise, and the paired "winning
percentage" statistic is exact.  The seeding does not depend on which
process runs simulation ``k`` (or how often it is retried), so batches
over worker processes are bit-identical to in-process ones.

The paper runs 80 000 simulations per (setting, planner) cell; at
~10 ms/episode a single process needs ~15 minutes per cell, hence the
optional process pool (``n_workers > 1``).

Failure containment
-------------------

A cell-sized batch must survive faults without discarding completed
episodes.  :meth:`BatchRunner.run_indices_detailed` isolates every
failure to the chunk it occurred in:

* an exception *inside* one simulation is caught and returned as a
  tagged error entry — sibling simulations in the chunk are unaffected,
  and the error is final (same seed, same exception);
* a dying worker (``BrokenProcessPool``), an unpicklable or malformed
  payload, and an expired per-simulation time budget fail only that
  chunk's indices, which are retried in later rounds as single-index
  chunks with the *same* seeds (each round gets a fresh pool — a broken
  pool cannot run further work);
* indices still failing after ``max_retries`` extra attempts surface as
  :class:`~repro.sim.results.FailureRecord` entries, never as a
  batch-wide raise.

:meth:`BatchRunner.run_batch` keeps the all-or-raise contract on top of
the same machinery.

Everything shipped to workers (engine, planner) must be picklable; all
planners and scenarios in this library are.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.faults.chaos import WorkerChaosOnce
from repro.filtering.info_filter import (
    EstimateProvider,
    InformationFilter,
    RawEstimator,
)
from repro.obs.observer import resolve_observer
from repro.planners.base import Planner
from repro.sim.engine import SimulationEngine
from repro.sim.results import (
    BatchResult,
    ChunkResult,
    FailureRecord,
    SimulationResult,
)
from repro.utils.rng import RngStream

__all__ = [
    "EstimatorKind",
    "PlannerFactory",
    "make_estimator_factory",
    "BatchRunner",
    "run_chunk",
]

#: Builds (or returns) the planner used for a batch.
PlannerFactory = Callable[[], Planner]


class EstimatorKind(str, Enum):
    """Which estimate provider a configuration uses."""

    #: Latest raw message + raw sensor band (basic compound, pure NN).
    RAW = "raw"
    #: The full information filter (ultimate compound planner).
    FILTERED = "filtered"


def make_estimator_factory(
    kind: EstimatorKind, engine: SimulationEngine, observer=None
) -> Callable[[int], EstimateProvider]:
    """Estimator factory matching the engine's scenario and comm setup.

    ``observer`` (optional) is handed to every
    :class:`InformationFilter` the factory builds, labelled ``veh<i>``;
    the raw estimator has nothing to report and ignores it.
    """
    scenario = engine.scenario
    comm = engine.comm

    def factory(index: int) -> EstimateProvider:
        limits = scenario.vehicle_limits(index)
        if kind is EstimatorKind.FILTERED:
            return InformationFilter(
                limits=limits,
                sensor_bounds=comm.sensor_bounds,
                sensing_period=comm.dt_s,
                observer=observer,
                label=f"veh{index}",
            )
        return RawEstimator(limits=limits, sensor_bounds=comm.sensor_bounds)

    return factory


def run_chunk(
    engine: SimulationEngine,
    planner: Planner,
    estimator_kind: EstimatorKind,
    seed: int,
    indices: Sequence[int],
    n_sims: int,
    chaos: Optional[WorkerChaosOnce] = None,
    observer=None,
    progress: Optional[Callable[[int], None]] = None,
) -> List[tuple]:
    """Run the given simulation indices of a batch — the one episode loop.

    Re-derives the batch's seed sequence locally and runs only the
    requested indices, returning one tagged tuple per index —
    ``(index, "ok", result)`` for a completed simulation or
    ``(index, "error", error_type, message)`` when that simulation
    raised (siblings in the chunk still run).  Module-level (not a
    closure) so it pickles under the default start method; the same
    function runs in-process and in pool workers.

    ``chaos`` is the test/benchmark hook that makes the first claiming
    invocation misbehave (crash / garbage payload / hang); production
    batches leave it ``None``.

    ``observer`` is only ever passed on the in-process path — observers
    are not picklable and never cross a process boundary, so pool
    workers always run untraced (which is bit-identical anyway).

    ``progress`` is called with each index as it finishes (ok or error)
    — the shard worker's liveness hook: heartbeats are emitted *during*
    a chunk, not just between chunks.  In-process path only, like
    ``observer``; on the pool path the parent reports indices as it
    harvests them.  Write-only with respect to results: the callback
    sees only the index, so it cannot perturb the bit-identity contract.
    """
    if chaos is not None and chaos.apply():
        return ["chaos: malformed payload"]  # type: ignore[list-item]
    obs = resolve_observer(observer)
    factory = make_estimator_factory(estimator_kind, engine, observer=observer)
    streams = RngStream(seed).spawn(n_sims)
    out: List[tuple] = []
    for index in indices:
        # Fault-tolerance boundary: one blown-up episode must not take
        # its chunk siblings down with it; the error is shipped back as
        # data and recorded by the caller.
        try:
            if obs.enabled:
                with obs.span("batch.sim", index=index, seed=seed):
                    result = engine.run(
                        planner, factory, streams[index], observer=obs
                    )
            else:
                result = engine.run(planner, factory, streams[index])
            out.append((index, "ok", result))
        except Exception as exc:  # safelint: disable=SFL003 - returned as tagged error entry
            out.append((index, "error", type(exc).__name__, str(exc)))
        if progress is not None:
            progress(index)
    return out


def _parse_payload(payload: object, chunk: List[int]) -> Optional[List[tuple]]:
    """A worker payload's tagged entries, or ``None`` if malformed."""
    if not isinstance(payload, list) or len(payload) != len(chunk):
        return None
    expected = set(chunk)
    for entry in payload:
        if not isinstance(entry, tuple) or len(entry) < 3:
            return None
        if entry[0] not in expected:
            return None
        expected.discard(entry[0])
        ok = entry[1] == "ok" and isinstance(entry[2], SimulationResult)
        if not ok and not (entry[1] == "error" and len(entry) == 4):
            return None
    return payload


class BatchRunner:
    """Runs seeded, crash-tolerant batches of one engine + estimator.

    Parameters
    ----------
    engine:
        The simulation setup (pickled to every worker on the pool path).
    estimator_kind:
        Which estimate provider each run uses.
    n_workers:
        Process count.  With one worker, no chaos hook and no watchdog
        the batch runs in-process, calling ``engine.run`` directly.
    max_retries:
        Extra attempts granted to indices whose *chunk* failed (worker
        death, malformed payload, timeout) before they become
        :class:`~repro.sim.results.FailureRecord` entries.  In-episode
        exceptions are deterministic under the seeding scheme and are
        never retried.
    timeout_per_sim:
        Optional per-simulation time budget; a chunk of ``m`` indices is
        given ``m * timeout_per_sim`` seconds before its workers are
        terminated and the indices retried.  ``None`` disables the
        watchdog.  Arming it moves even a one-worker runner onto the
        process pool, one index per chunk.
    chaos:
        Optional :class:`~repro.faults.chaos.WorkerChaosOnce` hook
        injected into every chunk (tests / chaos benchmark only).
    observer:
        Optional :class:`~repro.obs.observer.Observer`.  Reaches the
        simulation engine only on the in-process path — observers never
        cross a process boundary; on pool runs it still records
        parent-side round spans and retry counters.

    Notes
    -----
    Results are returned in simulation order regardless of worker
    scheduling, so ``winning_percentage`` and friends work unchanged.
    Pool batches ship every result back through pickling; give the
    engine a config with ``record_trajectories=False`` for large ones.

    Units: timeout_per_sim [s]
    """

    def __init__(
        self,
        engine: SimulationEngine,
        estimator_kind: EstimatorKind = EstimatorKind.FILTERED,
        n_workers: int = 1,
        max_retries: int = 2,
        timeout_per_sim: Optional[float] = None,
        chaos: Optional[WorkerChaosOnce] = None,
        observer=None,
    ) -> None:
        if n_workers < 1:
            raise SimulationError(f"n_workers must be >= 1, got {n_workers}")
        if max_retries < 0:
            raise SimulationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if timeout_per_sim is not None and timeout_per_sim <= 0.0:
            raise SimulationError(
                f"timeout_per_sim must be > 0, got {timeout_per_sim}"
            )
        self._engine = engine
        self._kind = estimator_kind
        self._n_workers = n_workers
        self._max_retries = max_retries
        self._timeout_per_sim = timeout_per_sim
        self._chaos = chaos
        self._obs = resolve_observer(observer)

    @property
    def engine(self) -> SimulationEngine:
        """The wrapped engine."""
        return self._engine

    @property
    def estimator_kind(self) -> EstimatorKind:
        """Which estimator this runner hands to every run."""
        return self._kind

    @property
    def n_workers(self) -> int:
        """Worker process count."""
        return self._n_workers

    @property
    def max_retries(self) -> int:
        """Extra attempts granted to chunk-level failures."""
        return self._max_retries

    # ------------------------------------------------------------------
    # Public API: thin wrappers over run_indices_detailed
    # ------------------------------------------------------------------
    def run_one(self, planner: Planner, seed: int) -> SimulationResult:
        """A single seeded episode (simulation 0 of a batch of one)."""
        return self.run_batch(planner, 1, seed)[0]

    def run_batch(
        self, planner: Planner, n_sims: int, seed: int = 0
    ) -> List[SimulationResult]:
        """``n_sims`` episodes on the workload family defined by ``seed``.

        Parameters
        ----------
        planner:
            Reused across episodes (the engine resets it each run).
        n_sims:
            Batch size.
        seed:
            Batch seed; the same seed reproduces the same workloads for
            any planner, enabling paired comparisons.

        Raises :class:`~repro.errors.SimulationError` summarising the
        failures if any simulation is irrecoverable; use
        :meth:`run_batch_detailed` to keep the surviving episodes
        instead.
        """
        return self.run_batch_detailed(planner, n_sims, seed).require_complete()

    def run_batch_detailed(
        self, planner: Planner, n_sims: int, seed: int = 0
    ) -> BatchResult:
        """Fault-tolerant batch: a failing episode becomes a record.

        Simulation ``k`` either yields the identical result it yields in
        any other batch with this seed (even when its chunk was retried
        after a worker crash) or a
        :class:`~repro.sim.results.FailureRecord` at index ``k`` —
        surviving episodes are never discarded because a sibling raised.
        """
        chunk = self.run_indices_detailed(planner, range(n_sims), n_sims, seed)
        return BatchResult(
            results=[chunk.results.get(k) for k in range(n_sims)],
            failures=chunk.failures,
        )

    def run_indices_detailed(
        self,
        planner: Planner,
        indices: Sequence[int],
        n_sims: int,
        seed: int = 0,
        progress: Optional[Callable[[int], None]] = None,
    ) -> ChunkResult:
        """Run a *subset* of a batch's indices with full fault tolerance.

        The campaign layer's chunk primitive: simulation ``k`` of the
        conceptual ``n_sims``-sized batch is seeded from child ``k`` of
        the batch seed exactly as in :meth:`run_batch_detailed`, so
        running a partition of ``range(n_sims)`` chunk by chunk — across
        processes, interruptions, or machines — concatenates to results
        bit-identical to one uninterrupted batch.

        ``progress`` (optional) is called with each finished index (ok
        or error): as it finishes on the in-process path, as its chunk
        is harvested on the pool path.  Indices whose chunk failed are
        reported when their retry completes, or never.
        """
        if n_sims <= 0:
            raise SimulationError(f"n_sims must be > 0, got {n_sims}")
        idx = list(indices)
        if not idx:
            raise SimulationError("indices must be non-empty")
        if len(set(idx)) != len(idx):
            raise SimulationError(f"indices must be unique, got {idx}")
        for index in idx:
            if not 0 <= index < n_sims:
                raise SimulationError(
                    f"index {index} outside batch of {n_sims}"
                )
        idx.sort()
        if (
            min(self._n_workers, len(idx)) == 1
            and self._chaos is None
            and self._timeout_per_sim is None
        ):
            # In-process path: no pool to crash, no watchdog to arm.
            payload = run_chunk(
                self._engine,
                planner,
                self._kind,
                seed,
                idx,
                n_sims,
                observer=(self._obs if self._obs.enabled else None),
                progress=progress,
            )
            results = {entry[0]: entry[2] for entry in payload if entry[1] == "ok"}
            failures = [
                FailureRecord(
                    index=entry[0],
                    stage="simulation",
                    error_type=entry[2],
                    message=entry[3],
                    attempts=1,
                )
                for entry in payload
                if entry[1] != "ok"
            ]
        else:
            results, failures = self._run_pool(
                planner, idx, n_sims, seed, progress
            )
        return ChunkResult(indices=idx, results=results, failures=failures)

    # ------------------------------------------------------------------
    # Process-pool retry rounds
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        planner: Planner,
        indices: List[int],
        n_sims: int,
        seed: int,
        progress: Optional[Callable[[int], None]],
    ) -> Tuple[Dict[int, SimulationResult], List[FailureRecord]]:
        """Run ``indices`` in pool rounds; results keyed by global index."""
        results: Dict[int, SimulationResult] = {}
        attempts: Dict[int, int] = {index: 0 for index in indices}
        #: index -> (stage, error_type, message) of its latest failure.
        last_error: Dict[int, Tuple[str, str, str]] = {}
        final: set = set()  # indices whose failure is not retryable

        def harvest(chunk: List[int], outcome) -> None:
            """Record one chunk: its payload entries or its failure."""
            for index in chunk:
                attempts[index] += 1
            if isinstance(outcome, tuple):
                for index in chunk:
                    last_error[index] = outcome
                return
            for entry in outcome:
                if entry[1] == "ok":
                    results[entry[0]] = entry[2]
                else:
                    # In-episode exceptions are deterministic (same
                    # seed, same planner state machine) — final, never
                    # retried.
                    last_error[entry[0]] = ("simulation", entry[2], entry[3])
                    final.add(entry[0])
                if progress is not None:
                    progress(entry[0])

        # Round 0: round-robin chunks, one per worker, so long and short
        # episodes interleave evenly — except that a single worker under
        # a watchdog gets one index per chunk, so every episode is
        # harvested (and budgeted) on its own.  Later rounds re-run
        # failed indices as single-index chunks for maximum isolation.
        workers = min(self._n_workers, len(indices))
        if workers == 1 and self._timeout_per_sim is not None:
            pending = [[index] for index in indices]
        else:
            pending = [indices[i::workers] for i in range(workers)]
        round_no = 0
        while pending:
            with self._obs.span(
                "batch.round", round=round_no, chunks=len(pending)
            ):
                self._run_round(pending, planner, seed, n_sims, harvest)
            retry: List[int] = []
            for chunk in pending:
                for index in chunk:
                    if index in results or index in final:
                        continue
                    if attempts[index] <= self._max_retries:
                        retry.append(index)
                    else:
                        final.add(index)
            if retry:
                self._obs.count("batch.retries", len(retry))
            pending = [[index] for index in sorted(retry)]
            round_no += 1

        failures = [
            FailureRecord(
                index=index,
                stage=last_error[index][0],
                error_type=last_error[index][1],
                message=last_error[index][2],
                attempts=attempts[index],
            )
            for index in sorted(final)
        ]
        return results, failures

    def _run_round(
        self,
        chunks: List[List[int]],
        planner: Planner,
        seed: int,
        n_sims: int,
        harvest: Callable[[List[int], object], None],
    ) -> None:
        """Run one round of chunks on a fresh pool, harvesting in order.

        ``harvest(chunk, outcome)`` receives the chunk's validated
        payload entries, or the ``(stage, error_type, message)`` its
        indices failed with.

        A fresh :class:`ProcessPoolExecutor` per round is deliberate: a
        ``BrokenProcessPool`` poisons the pool it happened in, and a
        timed-out worker may hold the pool's queue hostage — both are
        abandoned wholesale instead of reused.
        """
        pool = ProcessPoolExecutor(max_workers=min(self._n_workers, len(chunks)))
        hung = False
        try:
            futures = [
                (
                    pool.submit(
                        run_chunk,
                        self._engine,
                        planner,
                        self._kind,
                        seed,
                        chunk,
                        n_sims,
                        self._chaos,
                    ),
                    chunk,
                )
                for chunk in chunks
            ]
            for future, chunk in futures:
                budget: Optional[float] = None
                if self._timeout_per_sim is not None:
                    # After the first expiry the pool is condemned; only
                    # harvest chunks that are already done (zero budget).
                    budget = (
                        0.0 if hung else self._timeout_per_sim * len(chunk)
                    )
                try:
                    payload = future.result(timeout=budget)
                except FuturesTimeoutError:
                    hung = True
                    harvest(
                        chunk,
                        (
                            "timeout",
                            "TimeoutError",
                            f"chunk of {len(chunk)} exceeded its "
                            f"{budget:.3g}s budget",
                        ),
                    )
                # Fault-tolerance boundary: whatever killed the chunk
                # (BrokenProcessPool, pickling error, a raising worker)
                # is recorded against its indices and retried; sibling
                # chunks keep their results.
                except Exception as exc:  # safelint: disable=SFL003 - recorded per chunk, chunk retried
                    harvest(chunk, ("worker", type(exc).__name__, str(exc)))
                else:
                    entries = _parse_payload(payload, chunk)
                    if entries is None:
                        harvest(
                            chunk,
                            (
                                "worker",
                                "MalformedPayload",
                                f"worker returned {type(payload).__name__} "
                                "instead of tagged result entries",
                            ),
                        )
                    else:
                        harvest(chunk, entries)
        finally:
            if hung:
                self._terminate_workers(pool)
            pool.shutdown(wait=not hung, cancel_futures=True)

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Hard-kill a condemned pool's workers (hung beyond budget)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
