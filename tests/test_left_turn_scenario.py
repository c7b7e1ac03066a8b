"""Tests for the left-turn scenario object."""

import pytest

from repro.dynamics.state import SystemState, VehicleState
from repro.errors import ScenarioError
from repro.scenarios.base import Scenario
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.utils.rng import RngStream


class TestProtocol:
    def test_conformance(self, scenario):
        assert isinstance(scenario, Scenario)

    def test_two_vehicles(self, scenario):
        assert scenario.n_vehicles == 2

    def test_limits(self, scenario):
        assert scenario.vehicle_limits(0).v_max == 20.0
        assert scenario.vehicle_limits(1).v_max == -2.0
        with pytest.raises(ScenarioError):
            scenario.vehicle_limits(2)


class TestInitialState:
    def test_ego_start_fixed(self, scenario):
        state = scenario.initial_state(RngStream(0))
        assert state.ego.position == -30.0
        assert state.ego.velocity == 10.0

    def test_oncoming_from_paper_pool(self, scenario):
        positions = {
            scenario.initial_state(RngStream(seed)).vehicle(1).position
            for seed in range(40)
        }
        assert positions.issubset(set(scenario.oncoming_start_positions))
        assert len(positions) > 5

    def test_oncoming_speed_in_range(self, scenario):
        lo, hi = scenario.oncoming_start_speed_range
        for seed in range(20):
            v = scenario.initial_state(RngStream(seed)).vehicle(1).velocity
            assert -hi <= v <= -lo

    def test_reproducible(self, scenario):
        a = scenario.initial_state(RngStream(5))
        b = scenario.initial_state(RngStream(5))
        assert a.vehicle(1).position == b.vehicle(1).position
        assert a.vehicle(1).velocity == b.vehicle(1).velocity


class TestGroundTruth:
    def test_collision_predicate(self, scenario):
        both_inside = SystemState(
            time=0.0,
            vehicles=(
                VehicleState(position=10.0, velocity=5.0),
                VehicleState(position=10.0, velocity=-10.0),
            ),
        )
        assert scenario.is_collision(both_inside)
        ego_only = both_inside.with_vehicle(
            1, VehicleState(position=30.0, velocity=-10.0)
        )
        assert not scenario.is_collision(ego_only)

    def test_target_predicate(self, scenario):
        reached = SystemState(
            time=0.0,
            vehicles=(
                VehicleState(position=20.0, velocity=5.0),
                VehicleState(position=50.0, velocity=-10.0),
            ),
        )
        assert scenario.reached_target(reached)


class TestProfiles:
    def test_oncoming_profile_in_range(self, scenario):
        profile = scenario.profile_for(1, RngStream(0))
        lo, hi = scenario.profile_accel_range
        values = [
            profile(i, 0.0, 0.0, -10.0, 0.0)
            for i in range(50)
        ]
        assert all(lo <= v <= hi for v in values)

    def test_ego_has_no_profile(self, scenario):
        with pytest.raises(ScenarioError):
            scenario.profile_for(0, RngStream(0))


class TestValidation:
    def test_profile_outside_limits_rejected(self):
        with pytest.raises(ScenarioError):
            LeftTurnScenario(profile_accel_range=(-10.0, 10.0))

    def test_start_speed_outside_physical_rejected(self):
        with pytest.raises(ScenarioError):
            LeftTurnScenario(oncoming_start_speed_range=(1.0, 12.0))

    def test_unordered_speed_range_rejected(self):
        with pytest.raises(ScenarioError):
            LeftTurnScenario(oncoming_start_speed_range=(14.0, 9.0))

    def test_empty_position_pool_rejected(self):
        with pytest.raises(ScenarioError):
            LeftTurnScenario(oncoming_start_positions=())
