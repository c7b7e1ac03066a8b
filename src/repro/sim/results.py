"""Result records and aggregate statistics.

:class:`SimulationResult` is the per-run record the engine produces;
:class:`AggregateStats` summarises a batch the way the paper's tables do
(mean reaching time over safe runs, safe rate, mean eta, mean emergency
frequency); :func:`winning_percentage` implements the tables' pairwise
comparison column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.dynamics.trajectory import Trajectory
from repro.errors import SimulationError

__all__ = [
    "Outcome",
    "SimulationResult",
    "FailureRecord",
    "BatchResult",
    "ChunkResult",
    "AggregateStats",
    "winning_percentage",
]


class Outcome(str, Enum):
    """How a simulation ended."""

    #: The ego entered the true unsafe set before reaching the target.
    COLLISION = "collision"
    #: The ego reached the target set without a violation.
    REACHED = "reached"
    #: The horizon expired with neither event.
    TIMEOUT = "timeout"


@dataclass
class SimulationResult:
    """Everything recorded about one closed-loop run.

    Attributes
    ----------
    outcome:
        Terminal classification.
    reaching_time:
        Time the target set was entered (``None`` unless ``REACHED``).
    collision_time:
        Time of the violation (``None`` unless ``COLLISION``).
    steps:
        Control steps executed.
    emergency_steps:
        Steps commanded by the emergency planner (0 for pure planners).
    trajectories:
        Per-vehicle trajectories, indexed like the scenario's vehicles.
    channel_stats:
        Per-sender message statistics (sent/dropped/delivered).
    sensor_faults_injected, planner_faults_injected:
        Fault-plan injection counters (0 unless the run had a
        :class:`~repro.faults.plan.FaultPlan`).
    """

    outcome: Outcome
    reaching_time: Optional[float] = None
    collision_time: Optional[float] = None
    steps: int = 0
    emergency_steps: int = 0
    trajectories: List[Trajectory] = field(default_factory=list)
    channel_stats: Dict[int, object] = field(default_factory=dict)
    sensor_faults_injected: int = 0
    planner_faults_injected: int = 0

    @property
    def eta(self) -> float:
        """The paper's evaluation function ``eta`` (Section II-A)."""
        if self.outcome is Outcome.COLLISION:
            return -1.0
        if self.outcome is Outcome.REACHED:
            if self.reaching_time is None or self.reaching_time <= 0.0:
                raise SimulationError(
                    "REACHED outcome requires a positive reaching time"
                )
            return 1.0 / self.reaching_time
        return 0.0

    @property
    def is_safe(self) -> bool:
        """Whether no violation occurred."""
        return self.outcome is not Outcome.COLLISION

    @property
    def emergency_frequency(self) -> float:
        """Fraction of control steps commanded by the emergency planner."""
        if self.steps == 0:
            return 0.0
        return self.emergency_steps / self.steps


@dataclass(frozen=True)
class FailureRecord:
    """Why one simulation of a batch produced no result.

    Produced by the fault-tolerant batch runners when an episode is
    irrecoverable after bounded retries; surviving episodes keep their
    results instead of the whole batch raising.

    Attributes
    ----------
    index:
        Simulation index within the batch (its seed is child ``index``
        of the batch seed, so the failure is exactly reproducible).
    stage:
        Where the failure surfaced: ``"simulation"`` (the engine or
        planner raised), ``"worker"`` (the worker process died or its
        result could not be transferred), or ``"timeout"`` (the
        per-simulation time budget expired).
    error_type:
        Exception class name (or ``"TimeoutError"``).
    message:
        Stringified error detail.
    attempts:
        Total attempts made, including the first.
    """

    index: int
    stage: str
    error_type: str
    message: str
    attempts: int = 1

    def __str__(self) -> str:
        return (
            f"sim {self.index}: {self.stage} failure after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.message}"
        )


@dataclass
class BatchResult:
    """Outcome of a fault-tolerant batch: survivors plus failures.

    ``results[k]`` is simulation ``k``'s result, or ``None`` when it
    failed irrecoverably (then exactly one :class:`FailureRecord` with
    ``index == k`` exists).  Indexing matches the seed derivation of the
    sequential runner, so paired statistics over the *surviving* subset
    remain exact between runners.
    """

    results: List[Optional[SimulationResult]]
    failures: List[FailureRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        failed = {f.index for f in self.failures}
        for index in failed:
            if not 0 <= index < len(self.results):
                raise SimulationError(
                    f"FailureRecord index {index} outside batch of "
                    f"{len(self.results)}"
                )
        for k, result in enumerate(self.results):
            if result is None and k not in failed:
                raise SimulationError(
                    f"simulation {k} has neither a result nor a failure record"
                )
        self.failures.sort(key=lambda f: f.index)

    @property
    def n_total(self) -> int:
        """Batch size."""
        return len(self.results)

    @property
    def n_failed(self) -> int:
        """Simulations without a result."""
        return len(self.failures)

    @property
    def completed(self) -> List[SimulationResult]:
        """Surviving results in simulation order."""
        return [r for r in self.results if r is not None]

    @property
    def failed_indices(self) -> List[int]:
        """Indices of failed simulations, ascending."""
        return [f.index for f in self.failures]

    def require_complete(self) -> List[SimulationResult]:
        """All results, raising if any simulation failed.

        The raised :class:`~repro.errors.SimulationError` summarises the
        failure records; use :attr:`completed` / :attr:`failures` to
        keep the surviving episodes instead.
        """
        if self.failures:
            preview = "; ".join(str(f) for f in self.failures[:3])
            more = (
                "" if self.n_failed <= 3 else f" (+{self.n_failed - 3} more)"
            )
            raise SimulationError(
                f"{self.n_failed}/{self.n_total} simulations failed: "
                f"{preview}{more}"
            )
        return [r for r in self.results if r is not None]


@dataclass
class ChunkResult:
    """Outcome of running a *subset* of a batch's simulation indices.

    Produced by
    :meth:`~repro.sim.runner.BatchRunner.run_indices_detailed`:
    the durable campaign layer executes a long batch as many independent
    chunks, each covering a slice of the global index space, and needs
    per-chunk handoff of results and failure records without a dense
    batch-sized list.

    ``results[k]`` exists exactly for the indices of ``indices`` that
    completed; every other index carries one :class:`FailureRecord`.
    Because simulation ``k`` of a batch is seeded from child ``k`` of the
    batch seed regardless of chunking, concatenating chunk results over a
    partition of ``range(n_sims)`` is bit-identical to one uninterrupted
    batch.
    """

    indices: List[int]
    results: Dict[int, SimulationResult]
    failures: List[FailureRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        covered = set(self.indices)
        if len(covered) != len(self.indices):
            raise SimulationError("ChunkResult indices must be unique")
        for index in self.results:
            if index not in covered:
                raise SimulationError(
                    f"result for index {index} outside chunk indices"
                )
        failed = {f.index for f in self.failures}
        for index in failed:
            if index not in covered:
                raise SimulationError(
                    f"FailureRecord index {index} outside chunk indices"
                )
        for index in self.indices:
            if index not in self.results and index not in failed:
                raise SimulationError(
                    f"simulation {index} has neither a result nor a "
                    "failure record"
                )
        self.indices = sorted(self.indices)
        self.failures.sort(key=lambda f: f.index)

    @property
    def n_total(self) -> int:
        """Number of indices this chunk covered."""
        return len(self.indices)

    @property
    def n_failed(self) -> int:
        """Simulations without a result."""
        return len(self.failures)

    @property
    def completed(self) -> List[SimulationResult]:
        """Surviving results in ascending index order."""
        return [
            self.results[index]
            for index in self.indices
            if index in self.results
        ]

    @property
    def transient_failures(self) -> List[FailureRecord]:
        """Failures whose stage is infrastructure, not the simulation.

        ``stage == "simulation"`` failures are deterministic under the
        seeding scheme (same seed, same exception) and will recur on any
        retry; worker deaths and timeouts are environmental and a caller
        may reasonably re-run the chunk.
        """
        return [f for f in self.failures if f.stage != "simulation"]


@dataclass(frozen=True)
class AggregateStats:
    """Batch summary in the shape of the paper's table rows.

    ``mean_reaching_time`` averages *safe, completed* runs only —
    Table II's ``*`` convention — so an unsafe planner is not rewarded
    for fast crashes.
    """

    n_runs: int
    n_safe: int
    n_reached: int
    mean_reaching_time: float
    mean_eta: float
    mean_emergency_frequency: float

    @property
    def safe_rate(self) -> float:
        """Fraction of runs without a violation."""
        if self.n_runs == 0:
            return 0.0
        return self.n_safe / self.n_runs

    @classmethod
    def from_results(cls, results: Sequence[SimulationResult]) -> "AggregateStats":
        """Summarise a batch of results."""
        n = len(results)
        if n == 0:
            raise SimulationError("cannot aggregate an empty result list")
        safe = [r for r in results if r.is_safe]
        reached = [
            r
            for r in results
            if r.outcome is Outcome.REACHED and r.reaching_time is not None
        ]
        mean_rt = (
            sum(r.reaching_time for r in reached) / len(reached)
            if reached
            else float("nan")
        )
        return cls(
            n_runs=n,
            n_safe=len(safe),
            n_reached=len(reached),
            mean_reaching_time=mean_rt,
            mean_eta=sum(r.eta for r in results) / n,
            mean_emergency_frequency=(
                sum(r.emergency_frequency for r in results) / n
            ),
        )


def winning_percentage(
    challenger: Sequence[SimulationResult],
    incumbent: Sequence[SimulationResult],
) -> float:
    """Fraction of paired runs where the challenger's eta is higher.

    The paper's "winning percentage" column compares the ultimate
    compound planner against each alternative on identical workloads
    (same seeds), counting the simulations where it achieves the
    strictly higher eta value.
    """
    if len(challenger) != len(incumbent):
        raise SimulationError(
            f"paired comparison needs equal-length batches: "
            f"{len(challenger)} vs {len(incumbent)}"
        )
    if not challenger:
        raise SimulationError("cannot compare empty batches")
    wins = sum(
        1 for a, b in zip(challenger, incumbent) if a.eta > b.eta
    )
    return wins / len(challenger)
