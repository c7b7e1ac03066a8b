"""Shared fixtures for the test suite.

Trained NN planners are expensive (seconds each), so a session-scoped
*tiny* spec (small demonstration set, few epochs) is shared by every
test that only needs "some trained planner" rather than a calibrated
one.  Tests of calibrated behaviour (the table shapes) live in the
benchmarks, not here.
"""

from __future__ import annotations

import pytest

from repro.planners.factory import TrainedPlannerSpec, train_left_turn_planner
from repro.planners.training_data import DemonstrationConfig
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.utils.rng import RngStream

TINY_DEMO = DemonstrationConfig(n_random=300, n_rollouts=4)


@pytest.fixture(scope="session")
def scenario() -> LeftTurnScenario:
    """The default left-turn scenario."""
    return LeftTurnScenario()


#: Training seed of each tiny planner style.
TINY_SEEDS = {"conservative": 11, "aggressive": 12}


def train_tiny_spec(style: str, scenario: LeftTurnScenario) -> TrainedPlannerSpec:
    """A cheaply trained planner of ``style`` (seconds, not calibrated)."""
    return train_left_turn_planner(
        style,
        scenario.geometry,
        scenario.ego_limits,
        scenario.oncoming_limits,
        seed=TINY_SEEDS[style],
        demo_config=TINY_DEMO,
        epochs=15,
        hidden=16,
    )


@pytest.fixture(scope="session")
def tiny_conservative_spec(scenario) -> TrainedPlannerSpec:
    """A cheaply trained conservative planner (seconds, not calibrated)."""
    return train_tiny_spec("conservative", scenario)


@pytest.fixture(scope="session")
def tiny_aggressive_spec(scenario) -> TrainedPlannerSpec:
    """A cheaply trained aggressive planner (seconds, not calibrated)."""
    return train_tiny_spec("aggressive", scenario)


@pytest.fixture()
def rng() -> RngStream:
    """A fresh deterministic stream per test."""
    return RngStream(1234)
