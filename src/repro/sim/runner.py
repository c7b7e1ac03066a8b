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
returns a :class:`~repro.sim.results.ChunkResult` (the one result shape
from :func:`run_chunk` up to the campaign journal) with each failure as
data.  An exception inside a simulation is a final ``"simulation"``
:class:`~repro.sim.results.FailureRecord` (same seed, same exception).  Under the watchdog (``timeout_per_sim`` or a
chaos hook) a worker that dies, overruns its per-index budget or returns
a malformed payload is SIGKILLed and replaced, and only its index gets a
transient ``"worker"`` or ``"timeout"`` record, which
:func:`repro.campaign.runner.run_chunk_attempts` — the one retry rule —
re-runs with the same seed.  The watchdog's engine and planner must be
picklable under a non-``fork`` start method; all planners and scenarios
in this library are.
"""

from __future__ import annotations

import math
import multiprocessing
from enum import Enum
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    "valid_timeout_per_sim",
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


def valid_timeout_per_sim(timeout_per_sim: Optional[float]) -> bool:
    """Whether a per-simulation budget is ``None`` or finite and > 0.

    A NaN or infinite budget would reach ``Connection.poll``, which
    raises on it, so every index would fail as a transient worker death.

    Units: timeout_per_sim [s]
    """
    return timeout_per_sim is None or (
        math.isfinite(timeout_per_sim) and timeout_per_sim > 0.0
    )


def run_chunk(
    engine: SimulationEngine,
    planner: Planner,
    estimator_kind: EstimatorKind,
    seed: int,
    indices: Sequence[int],
    n_sims: int,
    observer=None,
) -> ChunkResult:
    """Run the given simulation indices of a batch — the one episode loop.

    Derives the streams of the requested indices alone — simulation
    ``k`` runs on ``RngStream(seed).spawn(n_sims)[k]``, built with
    :func:`~repro.utils.rng.child_seed` so a chunk costs nothing per
    simulation it does not run.  An index whose simulation raised gets
    a ``"simulation"`` :class:`~repro.sim.results.FailureRecord` (its
    siblings in the chunk still run).  Module-level (not a closure) so
    it pickles under any start method; the same function runs
    in-process and in the watchdog worker.

    ``observer`` is only ever passed on the in-process path — observers
    are not picklable and never cross a process boundary, so the
    watchdog worker always runs untraced (which is bit-identical
    anyway).
    """
    obs = resolve_observer(observer)
    factory = make_estimator_factory(estimator_kind, engine, observer=observer)
    root = np.random.SeedSequence(seed)
    results: Dict[int, SimulationResult] = {}
    failures: List[FailureRecord] = []
    for index in indices:
        # Fault-tolerance boundary: one blown-up episode must not take
        # its chunk siblings down with it; the error is returned as a
        # failure record.
        try:
            if not 0 <= index < n_sims:
                raise IndexError(
                    f"simulation index {index} outside a batch of {n_sims}"
                )
            stream = RngStream(child_seed(root, index))
            if obs.enabled:
                with obs.span("batch.sim", index=index, seed=seed):
                    results[index] = engine.run(
                        planner, factory, stream, observer=obs
                    )
            else:
                results[index] = engine.run(planner, factory, stream)
        except Exception as exc:  # safelint: disable=SFL003 - returned as a "simulation" FailureRecord
            failures.append(
                FailureRecord(
                    index=index,
                    stage="simulation",
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
            )
    return ChunkResult(indices=list(indices), results=results, failures=failures)


def _watchdog_worker(
    conn: Connection,
    engine: SimulationEngine,
    planner: Planner,
    estimator_kind: EstimatorKind,
    seed: int,
    n_sims: int,
    chaos: Optional[WorkerChaosOnce],
) -> None:
    """Watchdog worker body: run each index received, reply with its chunk.

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


def _parse_payload(payload: object, index: int) -> Optional[ChunkResult]:
    """A worker reply as the chunk of ``index`` alone, or ``None``."""
    if isinstance(payload, ChunkResult) and payload.indices == [index]:
        return payload
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
        if not valid_timeout_per_sim(timeout_per_sim):
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
        :meth:`run_indices_detailed` over ``range(n_sims)`` to keep the
        surviving episodes instead.
        """
        return self.run_indices_detailed(
            planner, range(n_sims), n_sims, seed
        ).require_complete()

    def run_indices_detailed(
        self,
        planner: Planner,
        indices: Sequence[int],
        n_sims: int,
        seed: int = 0,
    ) -> ChunkResult:
        """Run some indices of a batch, each exactly once.

        Simulation ``k`` of the conceptual ``n_sims``-sized batch is
        seeded from child ``k`` of the batch seed, so running a
        partition of ``range(n_sims)`` chunk by chunk — across
        processes, interruptions, or machines — concatenates to results
        bit-identical to one uninterrupted batch.  A failing episode
        becomes a :class:`~repro.sim.results.FailureRecord` at its
        index; surviving episodes are never discarded because a sibling
        failed.
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
            return run_chunk(
                self._engine,
                planner,
                self._kind,
                seed,
                idx,
                n_sims,
                observer=(self._obs if self._obs.enabled else None),
            )
        return self._run_watched(planner, idx, n_sims, seed)

    # ------------------------------------------------------------------
    # The watchdog: one worker process, replaced when condemned
    # ------------------------------------------------------------------
    def _run_watched(
        self, planner: Planner, indices: List[int], n_sims: int, seed: int
    ) -> ChunkResult:
        """Run each index once in a watchdog worker.

        One worker serves the indices in turn.  A worker that dies,
        overruns ``timeout_per_sim`` or replies with a malformed payload
        is SIGKILLed and replaced, and only its index gets a
        ``"worker"`` or ``"timeout"`` record.
        """
        results: Dict[int, SimulationResult] = {}
        failures: List[FailureRecord] = []
        worker: Optional[Tuple[BaseProcess, Connection]] = None
        try:
            for index in indices:
                if worker is None:
                    worker = self._spawn(planner, n_sims, seed)
                chunk = self._ask(worker[1], index)
                if chunk.transient_failures:
                    _kill(*worker)
                    worker = None
                results.update(chunk.results)
                failures.extend(chunk.failures)
        finally:
            if worker is not None:
                _kill(*worker)  # idle between indices: nothing is lost
        return ChunkResult(indices=indices, results=results, failures=failures)

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

    def _ask(self, conn: Connection, index: int) -> ChunkResult:
        """Send ``index`` to a worker; its chunk, or a transient failure."""
        try:
            conn.send(index)
            if conn.poll(self._timeout_per_sim):
                reply = conn.recv()
                chunk = _parse_payload(reply, index)
                if chunk is not None:
                    return chunk
                failure = FailureRecord(
                    index,
                    "worker",
                    "MalformedPayload",
                    f"worker returned {type(reply).__name__} instead of "
                    f"the ChunkResult of index {index}",
                )
            else:
                budget = f"{self._timeout_per_sim:.3g}s"
                failure = FailureRecord(
                    index,
                    "timeout",
                    "TimeoutError",
                    f"simulation exceeded its {budget} budget",
                )
        # Fault-tolerance boundary: whatever broke the exchange (a dead
        # worker's EOF, a broken pipe, an unpicklable reply) is recorded
        # against this index only.
        except Exception as exc:  # safelint: disable=SFL003 - recorded as a transient "worker" failure
            message = str(exc) or "worker process died before replying"
            failure = FailureRecord(index, "worker", type(exc).__name__, message)
        return ChunkResult(indices=[index], results={}, failures=[failure])
