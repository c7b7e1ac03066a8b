"""Closed-loop simulation: clock, engine, evaluation, batch runner."""

from repro.sim.clock import MultiRateClock
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.evaluation import Outcome, eta
from repro.sim.results import (
    AggregateStats,
    ChunkResult,
    FailureRecord,
    SimulationResult,
    winning_percentage,
)
from repro.sim.runner import BatchRunner, EstimatorKind, PlannerFactory

__all__ = [
    "ChunkResult",
    "FailureRecord",
    "MultiRateClock",
    "CommSetup",
    "SimulationConfig",
    "SimulationEngine",
    "Outcome",
    "eta",
    "SimulationResult",
    "AggregateStats",
    "winning_percentage",
    "BatchRunner",
    "PlannerFactory",
    "EstimatorKind",
]
