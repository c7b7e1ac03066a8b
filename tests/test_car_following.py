"""Tests for the car-following scenario and its safety model."""

import pytest

from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleModel
from repro.errors import ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.planners.idm import GapChaserPlanner, IDMPlanner
from repro.scenarios.base import Scenario
from repro.scenarios.car_following import (
    CarFollowingSafetyModel,
    CarFollowingScenario,
    following_slack,
)
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import BatchRunner, EstimatorKind
from repro.utils.rng import RngStream


@pytest.fixture(scope="module")
def cf_scenario():
    return CarFollowingScenario()


def _leader_estimate(time, position, velocity):
    return {
        1: FusedEstimate(
            time, position, position, velocity, velocity, position, velocity, 0.0
        )
    }


class TestScenario:
    def test_protocol(self, cf_scenario):
        assert isinstance(cf_scenario, Scenario)

    def test_initial_gap(self, cf_scenario):
        state = cf_scenario.initial_state(RngStream(0))
        gap = state.vehicle(1).position - state.ego.position
        assert gap == cf_scenario.initial_gap

    def test_collision_is_gap_violation(self, cf_scenario):
        assert cf_scenario.is_collision_at(0.0, [0.0, 4.9])
        assert not cf_scenario.is_collision_at(0.0, [0.0, 5.0])

    def test_validation(self):
        with pytest.raises(ScenarioError):
            CarFollowingScenario(initial_gap=4.0, p_gap=5.0)
        with pytest.raises(ScenarioError):
            CarFollowingScenario(leader_accel_range=(-20.0, 2.0))


class TestSlack:
    def test_positive_with_ample_gap(self, cf_scenario):
        s = following_slack(
            0.0, 15.0, 100.0, 15.0, 5.0,
            cf_scenario.ego_limits, cf_scenario.leader_limits,
        )
        assert s > 0.0

    def test_negative_when_tailgating_fast(self, cf_scenario):
        s = following_slack(
            0.0, 25.0, 8.0, 5.0, 5.0,
            cf_scenario.ego_limits, cf_scenario.leader_limits,
        )
        assert s < 0.0

    def test_slack_certifies_full_brake_episode(self, cf_scenario):
        """Nonnegative slack + full ego braking preserves the gap even
        if the leader full-brakes immediately."""
        ego_model = VehicleModel(cf_scenario.ego_limits)
        leader_model = VehicleModel(cf_scenario.leader_limits)
        ego = VehicleState(position=0.0, velocity=25.0)
        leader = VehicleState(position=60.0, velocity=12.0)
        s0 = following_slack(
            ego.position, ego.velocity, leader.position, leader.velocity, cf_scenario.p_gap,
            cf_scenario.ego_limits, cf_scenario.leader_limits,
        )
        assert s0 >= 0.0
        for _ in range(400):
            ego = ego_model.step(ego, cf_scenario.ego_limits.a_min, 0.05)
            leader = leader_model.step(
                leader, cf_scenario.leader_limits.a_min, 0.05
            )
            assert leader.position - ego.position >= cf_scenario.p_gap - 1e-9


class TestSafetyModel:
    def _model(self, cf_scenario):
        return CarFollowingSafetyModel(
            p_gap=cf_scenario.p_gap,
            ego_limits=cf_scenario.ego_limits,
            leader_limits=cf_scenario.leader_limits,
            dt_c=cf_scenario.dt_c,
        )

    def test_safe_far_behind(self, cf_scenario):
        model = self._model(cf_scenario)
        estimates = _leader_estimate(0.0, 80.0, 15.0)
        assert model.decide(0.0, 0.0, 15.0, estimates) == (False, False, None)

    def test_unsafe_when_closing_fast(self, cf_scenario):
        model = self._model(cf_scenario)
        estimates = _leader_estimate(0.0, 10.0, 5.0)
        assert model.decide(0.0, 0.0, 28.0, estimates) == (True, True, None)

    def test_boundary_brackets_unsafe(self, cf_scenario):
        model = self._model(cf_scenario)
        # Find a gap where boundary fires but unsafe does not.
        for gap in range(60, 5, -1):
            estimates = _leader_estimate(0.0, float(gap), 10.0)
            in_boundary, in_unsafe, _ = model.decide(0.0, 0.0, 20.0, estimates)
            if in_boundary:
                assert not in_unsafe
                return
        pytest.fail("boundary set never fired")

    def test_missing_estimate_rejected(self, cf_scenario):
        model = self._model(cf_scenario)
        with pytest.raises(ScenarioError):
            model.decide(0.0, 0.0, 0.0, {})


class TestClosedLoop:
    def _engine(self, cf_scenario):
        return SimulationEngine(
            cf_scenario,
            CommSetup.perfect(dt_m=0.1),
            SimulationConfig(max_time=20.0, record_trajectories=False),
        )

    def test_idm_is_safe(self, cf_scenario):
        runner = BatchRunner(self._engine(cf_scenario), EstimatorKind.RAW)
        results = runner.run_batch(
            IDMPlanner(cf_scenario.ego_limits), 10, seed=0
        )
        assert all(r.is_safe for r in results)

    def test_gap_chaser_violates(self, cf_scenario):
        runner = BatchRunner(self._engine(cf_scenario), EstimatorKind.RAW)
        results = runner.run_batch(
            GapChaserPlanner(cf_scenario.ego_limits), 10, seed=0
        )
        assert any(r.outcome is Outcome.COLLISION for r in results)

    def test_shielded_gap_chaser_is_safe(self, cf_scenario):
        shielded = CompoundPlanner(
            nn_planner=GapChaserPlanner(cf_scenario.ego_limits),
            emergency_planner=cf_scenario.emergency_planner(),
            monitor=RuntimeMonitor(cf_scenario.safety_model()),
            limits=cf_scenario.ego_limits,
        )
        runner = BatchRunner(
            self._engine(cf_scenario), EstimatorKind.FILTERED
        )
        results = runner.run_batch(shielded, 10, seed=0)
        assert all(r.is_safe for r in results)
        assert any(r.emergency_steps > 0 for r in results)
