"""Seeded, crash-tolerant batch execution over one engine.

The paper's tables compare several planner configurations on *identical*
workloads; the runner guarantees that by deriving every stochastic
component of simulation ``k`` from child ``k`` of the batch seed — so two
batches with the same seed see the same oncoming-vehicle behaviour, the
same message drops and the same sensor noise, and the paired "winning
percentage" statistic is exact.  The seeding does not depend on which
process runs simulation ``k`` (or how often it is re-run), so an episode
run under the watchdog is bit-identical to one run in-process.

Campaign-sized batches (the paper runs 80 000 simulations per cell) run
as journaled chunks of a :mod:`repro.campaign`, whose shard worker fleet
is the parallel path.

Failure containment
-------------------

:meth:`BatchRunner.run_indices_detailed` attempts every index once and
returns each failure as data.  An exception inside a simulation is a
final ``"simulation"`` :class:`~repro.sim.results.FailureRecord` (same
seed, same exception).  Under the watchdog (``timeout_per_sim`` or a
chaos hook) a worker that dies, overruns its per-index budget or returns
a malformed payload is SIGKILLed and replaced, and only its index gets a
transient ``"worker"`` or ``"timeout"`` record, which
:func:`repro.campaign.runner.run_chunk_attempts` — the one retry rule —
re-runs with the same seed.  The watchdog's engine and planner must be
picklable under a non-``fork`` start method; all planners and scenarios
in this library are.
"""

from __future__ import annotations

import multiprocessing
from enum import Enum
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

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
from repro.utils.rng import RngStream, child_seed

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
    observer=None,
    progress: Optional[Callable[[int], None]] = None,
) -> List[tuple]:
    """Run the given simulation indices of a batch — the one episode loop.

    Derives the streams of the requested indices alone — simulation
    ``k`` runs on ``RngStream(seed).spawn(n_sims)[k]``, built with
    :func:`~repro.utils.rng.child_seed` so a chunk costs nothing per
    simulation it does not run — returning one tagged tuple per index —
    ``(index, "ok", result)`` for a completed simulation or
    ``(index, "error", error_type, message)`` when that simulation
    raised (siblings in the chunk still run).  Module-level (not a
    closure) so it pickles under any start method; the same function
    runs in-process and in the watchdog worker.

    ``observer`` is only ever passed on the in-process path — observers
    are not picklable and never cross a process boundary, so the
    watchdog worker always runs untraced (which is bit-identical
    anyway).

    ``progress`` is called with each index as it finishes (ok or error)
    — the shard worker's liveness hook: heartbeats are emitted *during*
    a chunk, not just between chunks.  In-process path only, like
    ``observer``; under the watchdog the parent reports each index as
    its reply arrives.  Write-only with respect to results: the callback
    sees only the index, so it cannot perturb the bit-identity contract.
    """
    obs = resolve_observer(observer)
    factory = make_estimator_factory(estimator_kind, engine, observer=observer)
    root = np.random.SeedSequence(seed)
    out: List[tuple] = []
    for index in indices:
        # Fault-tolerance boundary: one blown-up episode must not take
        # its chunk siblings down with it; the error is shipped back as
        # data and recorded by the caller.
        try:
            if not 0 <= index < n_sims:
                raise IndexError(
                    f"simulation index {index} outside a batch of {n_sims}"
                )
            stream = RngStream(child_seed(root, index))
            if obs.enabled:
                with obs.span("batch.sim", index=index, seed=seed):
                    result = engine.run(planner, factory, stream, observer=obs)
            else:
                result = engine.run(planner, factory, stream)
            out.append((index, "ok", result))
        except Exception as exc:  # safelint: disable=SFL003 - returned as tagged error entry
            out.append((index, "error", type(exc).__name__, str(exc)))
        if progress is not None:
            progress(index)
    return out


def _watchdog_worker(
    conn: Connection,
    engine: SimulationEngine,
    planner: Planner,
    estimator_kind: EstimatorKind,
    seed: int,
    n_sims: int,
    chaos: Optional[WorkerChaosOnce],
) -> None:
    """Watchdog worker body: run each index received, reply with its entry.

    Returns (and the process exits) when the parent closes the pipe.
    ``chaos`` (tests and the chaos benchmark only) makes the first call
    that claims it crash, hang, or reply with garbage.
    """
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        if chaos is not None and chaos.apply():
            conn.send("chaos: malformed payload")
        else:
            conn.send(
                run_chunk(engine, planner, estimator_kind, seed, [index], n_sims)
            )


def _kill(process: BaseProcess, conn: Connection) -> None:
    """SIGKILL a watchdog worker and reap it.

    SIGKILL, not SIGTERM: a forked worker inherits its parent's signal
    handlers — the campaign runner's SIGTERM drain handler among them —
    so a hung worker would outlive ``terminate()``.
    """
    conn.close()
    process.kill()
    process.join()


def _parse_payload(payload: object, index: int) -> Optional[tuple]:
    """A worker reply's tagged entry for ``index``, or ``None`` if malformed."""
    if not isinstance(payload, list) or len(payload) != 1:
        return None
    entry = payload[0]
    if not isinstance(entry, tuple) or len(entry) < 3 or entry[0] != index:
        return None
    if entry[1] == "ok" and isinstance(entry[2], SimulationResult):
        return entry
    if entry[1] == "error" and len(entry) == 4:
        return entry
    return None


class BatchRunner:
    """Runs seeded, crash-tolerant batches of one engine + estimator.

    Parameters
    ----------
    engine:
        The simulation setup (handed to the watchdog worker when armed).
    estimator_kind:
        Which estimate provider each run uses.
    timeout_per_sim:
        Optional per-simulation time budget.  Arming it runs every
        index in a watchdog worker process, which is SIGKILLed and
        replaced when the budget expires; the index gets a
        ``"timeout"`` :class:`~repro.sim.results.FailureRecord`.
        ``None`` (the default) runs the batch in-process.
    chaos:
        Optional :class:`~repro.faults.chaos.WorkerChaosOnce` hook
        injected into the watchdog worker (tests / chaos benchmark
        only); it arms the watchdog even without a time budget.
    observer:
        Optional :class:`~repro.obs.observer.Observer`.  Reaches the
        simulation engine on the in-process path only — observers never
        cross a process boundary.

    Notes
    -----
    Each index is attempted once (retries are
    :func:`repro.campaign.runner.run_chunk_attempts`).  Results come back
    in simulation order; the watchdog pickles them across, so give the
    engine ``record_trajectories=False`` for large batches.

    Units: timeout_per_sim [s]
    """

    def __init__(
        self,
        engine: SimulationEngine,
        estimator_kind: EstimatorKind = EstimatorKind.FILTERED,
        timeout_per_sim: Optional[float] = None,
        chaos: Optional[WorkerChaosOnce] = None,
        observer=None,
    ) -> None:
        if timeout_per_sim is not None and timeout_per_sim <= 0.0:
            raise SimulationError(
                f"timeout_per_sim must be > 0, got {timeout_per_sim}"
            )
        self._engine = engine
        self._kind = estimator_kind
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
        failures if any simulation failed; use
        :meth:`run_batch_detailed` to keep the surviving episodes
        instead.
        """
        return self.run_batch_detailed(planner, n_sims, seed).require_complete()

    def run_batch_detailed(
        self, planner: Planner, n_sims: int, seed: int = 0
    ) -> BatchResult:
        """Fault-tolerant batch: a failing episode becomes a record.

        Simulation ``k`` either yields the identical result it yields in
        any other batch with this seed or a
        :class:`~repro.sim.results.FailureRecord` at index ``k`` —
        surviving episodes are never discarded because a sibling failed.
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
        """Run a *subset* of a batch's indices, each exactly once.

        The campaign layer's chunk primitive: simulation ``k`` of the
        conceptual ``n_sims``-sized batch is seeded from child ``k`` of
        the batch seed exactly as in :meth:`run_batch_detailed`, so
        running a partition of ``range(n_sims)`` chunk by chunk — across
        processes, interruptions, or machines — concatenates to results
        bit-identical to one uninterrupted batch.

        ``progress`` (optional) is called with each index that finished
        (ok or error), as it finishes; an index that failed transiently
        is not reported.
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
        if self._chaos is None and self._timeout_per_sim is None:
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
        else:
            payload = self._run_watched(planner, idx, n_sims, seed, progress)
        results = {entry[0]: entry[2] for entry in payload if entry[1] == "ok"}
        failures = [
            FailureRecord(
                index=entry[0],
                stage="simulation" if entry[1] == "error" else entry[1],
                error_type=entry[2],
                message=entry[3],
                attempts=1,
            )
            for entry in payload
            if entry[1] != "ok"
        ]
        return ChunkResult(indices=idx, results=results, failures=failures)

    # ------------------------------------------------------------------
    # The watchdog: one worker process, replaced when condemned
    # ------------------------------------------------------------------
    def _run_watched(
        self,
        planner: Planner,
        indices: List[int],
        n_sims: int,
        seed: int,
        progress: Optional[Callable[[int], None]],
    ) -> List[tuple]:
        """Run each index once in a watchdog worker; tagged entries.

        One worker serves the indices in turn.  A worker that dies,
        overruns ``timeout_per_sim`` or replies with a malformed payload
        is SIGKILLed and replaced, and only its index gets a
        ``"worker"`` or ``"timeout"`` entry.
        """
        payload: List[tuple] = []
        worker: Optional[Tuple[BaseProcess, Connection]] = None
        try:
            for index in indices:
                if worker is None:
                    worker = self._spawn(planner, n_sims, seed)
                entry = self._ask(worker[1], index)
                if entry[1] in ("worker", "timeout"):
                    _kill(*worker)
                    worker = None
                elif progress is not None:
                    progress(index)
                payload.append(entry)
        finally:
            if worker is not None:
                _kill(*worker)  # idle between indices: nothing is lost
        return payload

    def _spawn(
        self, planner: Planner, n_sims: int, seed: int
    ) -> Tuple[BaseProcess, Connection]:
        conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_watchdog_worker,
            args=(
                child_conn, self._engine, planner, self._kind, seed, n_sims,
                self._chaos,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()  # else a dead worker would never read as EOF
        return process, conn

    def _ask(self, conn: Connection, index: int) -> tuple:
        """Send ``index`` to a worker; its entry, or a transient one."""
        try:
            conn.send(index)
            if not conn.poll(self._timeout_per_sim):
                budget = f"{self._timeout_per_sim:.3g}s"
                return (
                    index,
                    "timeout",
                    "TimeoutError",
                    f"simulation exceeded its {budget} budget",
                )
            reply = conn.recv()
        # Fault-tolerance boundary: whatever broke the exchange (a dead
        # worker's EOF, a broken pipe, an unpicklable reply) is recorded
        # against this index only.
        except Exception as exc:  # safelint: disable=SFL003 - recorded as a transient "worker" entry
            message = str(exc) or "worker process died before replying"
            return (index, "worker", type(exc).__name__, message)
        entry = _parse_payload(reply, index)
        if entry is None:
            message = (
                f"worker returned {type(reply).__name__} instead of a "
                "tagged result entry"
            )
            return (index, "worker", "MalformedPayload", message)
        return entry
