"""The unprotected left turn case study (Section IV of the paper)."""

from repro.scenarios.left_turn.geometry import (
    LeftTurnGeometry,
    earliest_arrival_time,
    latest_arrival_time,
)
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.scenarios.left_turn.unsafe_set import LeftTurnSafetyModel
from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
from repro.scenarios.left_turn.scenario import LeftTurnScenario

__all__ = [
    "LeftTurnGeometry",
    "earliest_arrival_time",
    "latest_arrival_time",
    "PassingWindowEstimator",
    "LeftTurnSafetyModel",
    "LeftTurnEmergencyPlanner",
    "LeftTurnScenario",
]
