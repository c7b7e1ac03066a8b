"""Tests for the signalized-intersection scenario."""

import math

import pytest

from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.dynamics.state import SystemState, VehicleState
from repro.errors import ScenarioError
from repro.scenarios.base import Scenario
from repro.scenarios.signalized import SignalizedCrossingScenario, TrafficLight
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import BatchRunner, EstimatorKind
from repro.utils.rng import RngStream


@pytest.fixture(scope="module")
def crossing():
    return SignalizedCrossingScenario()


class TestTrafficLight:
    light = TrafficLight(green=6.0, red=8.0, offset=2.0)

    def test_cycle(self):
        assert self.light.cycle == 14.0

    def test_green_phases(self):
        assert not self.light.is_green(0.0)  # before offset
        assert self.light.is_green(2.0)
        assert self.light.is_green(7.9)
        assert not self.light.is_green(8.1)
        assert not self.light.is_green(15.9)
        assert self.light.is_green(16.1)  # next cycle

    def test_next_red_interval_during_green(self):
        lo, hi = self.light.next_red_bounds(3.0)
        assert lo == pytest.approx(8.0)
        assert hi == pytest.approx(16.0)

    def test_next_red_interval_during_red(self):
        lo, hi = self.light.next_red_bounds(10.0)
        assert lo == pytest.approx(8.0)
        assert hi == pytest.approx(16.0)

    def test_pre_offset_red(self):
        lo, hi = self.light.next_red_bounds(0.5)
        assert math.isinf(lo) and lo < 0.0
        assert hi == pytest.approx(2.0)

    def test_next_green_start(self):
        assert self.light.next_green_start(0.0) == pytest.approx(2.0)
        assert self.light.next_green_start(3.0) == pytest.approx(2.0)
        assert self.light.next_green_start(9.0) == pytest.approx(16.0)

    def test_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TrafficLight(green=0.0, red=8.0)


class TestScenarioProtocol:
    def test_conformance(self, crossing):
        assert isinstance(crossing, Scenario)

    def test_single_vehicle(self, crossing):
        assert crossing.n_vehicles == 1
        with pytest.raises(ScenarioError):
            crossing.vehicle_limits(1)
        with pytest.raises(ScenarioError):
            crossing.profile_for(1, RngStream(0))

    def test_violation_predicate(self, crossing):
        inside = SystemState(
            time=7.0,  # red phase of the default (6 green / 8 red) light
            vehicles=(VehicleState(position=10.0, velocity=5.0),),
        )
        assert crossing.is_collision(inside)
        during_green = inside.with_time(3.0)
        assert not crossing.is_collision(during_green)

    def test_with_offset(self, crossing):
        shifted = crossing.with_offset(3.0)
        assert shifted.light.offset == 3.0
        assert shifted.light.green == crossing.light.green

    def test_fresh_safety_model_window_is_next_red(self, crossing):
        # No predicate has been evaluated on this model yet: the window
        # depends on the clock passed in, not on earlier calls.
        model = crossing.safety_model()
        for time in (0.0, 3.0, 10.0, 17.5):
            assert model.oncoming_bounds(time, {}) == (
                crossing.light.next_red_bounds(time)
            )


class TestClosedLoop:
    def _engine(self, scenario):
        return SimulationEngine(
            scenario,
            CommSetup.perfect(),
            SimulationConfig(max_time=40.0, record_trajectories=False),
        )

    @pytest.mark.parametrize("offset", [0.0, 3.0, 6.0, 9.0, 12.0])
    def test_green_wave_planner_is_safe_and_reaches(self, crossing, offset):
        scenario = crossing.with_offset(offset)
        result = BatchRunner(
            self._engine(scenario), EstimatorKind.RAW
        ).run_one(scenario.green_wave_planner(), seed=0)
        assert result.outcome is Outcome.REACHED

    def test_red_light_runner_violates_somewhere(self, crossing):
        outcomes = []
        for offset in (0.0, 3.0, 6.0, 9.0, 12.0):
            scenario = crossing.with_offset(offset)
            result = BatchRunner(
                self._engine(scenario), EstimatorKind.RAW
            ).run_one(scenario.red_light_runner(), seed=0)
            outcomes.append(result.outcome)
        assert Outcome.COLLISION in outcomes

    @pytest.mark.parametrize("offset", [0.0, 3.0, 6.0, 9.0, 12.0])
    def test_shielded_runner_always_safe(self, crossing, offset):
        scenario = crossing.with_offset(offset)
        shielded = CompoundPlanner(
            nn_planner=scenario.red_light_runner(),
            emergency_planner=scenario.emergency_planner(),
            monitor=RuntimeMonitor(scenario.safety_model()),
            limits=scenario.ego_limits,
        )
        result = BatchRunner(
            self._engine(scenario), EstimatorKind.RAW
        ).run_one(shielded, seed=0)
        assert result.outcome is Outcome.REACHED

    def test_shielded_runner_waits_out_red(self, crossing):
        """With the light red on arrival, the monitor holds the ego at
        the line until the next green."""
        scenario = crossing.with_offset(8.0)  # red when the ego arrives
        shielded = CompoundPlanner(
            nn_planner=scenario.red_light_runner(),
            emergency_planner=scenario.emergency_planner(),
            monitor=RuntimeMonitor(scenario.safety_model()),
            limits=scenario.ego_limits,
        )
        result = BatchRunner(
            self._engine(scenario), EstimatorKind.RAW
        ).run_one(shielded, seed=0)
        assert result.outcome is Outcome.REACHED
        assert result.emergency_steps > 0


class TestPlannersStandalone:
    def test_green_wave_go_when_committed(self, crossing):
        from repro.planners.base import PlanningContext

        planner = crossing.green_wave_planner()
        ctx = PlanningContext(
            time=1.0, ego=VehicleState(position=8.0, velocity=5.0)
        )
        assert planner.plan(ctx) > 0.0

    def test_red_light_runner_tracks_speed(self, crossing):
        from repro.planners.base import PlanningContext

        planner = crossing.red_light_runner()
        slow = PlanningContext(
            time=0.0, ego=VehicleState(position=-40.0, velocity=5.0)
        )
        fast = PlanningContext(
            time=0.0, ego=VehicleState(position=-40.0, velocity=18.0)
        )
        assert planner.plan(slow) > 0.0
        assert planner.plan(fast) < 0.0
