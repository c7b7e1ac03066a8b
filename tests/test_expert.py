"""Tests for the rule-based expert planners."""

import pytest

from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError
from repro.filtering.fusion import FusedEstimate
from repro.planners.expert import ExpertConfig, LeftTurnExpertPlanner
from repro.scenarios.left_turn.geometry import LeftTurnGeometry
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.utils.intervals import Interval

GEOMETRY = LeftTurnGeometry()
EGO = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)
ONCOMING = VehicleLimits(v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0)


def _expert(config=None):
    return LeftTurnExpertPlanner(
        geometry=GEOMETRY,
        limits=EGO,
        window_estimator=PassingWindowEstimator(GEOMETRY, ONCOMING),
        config=config or ExpertConfig.conservative(),
    )


class TestConfig:
    def test_presets_differ(self):
        cons = ExpertConfig.conservative()
        aggr = ExpertConfig.aggressive()
        assert aggr.entry_margin < cons.entry_margin
        assert aggr.conflict_cruise_speed > cons.conflict_cruise_speed
        assert aggr.go_accel > cons.go_accel

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cruise_speed", 0.0),
            ("conflict_cruise_speed", -1.0),
            ("go_accel", 0.0),
            ("stop_margin", -1.0),
            ("comfort_brake", 0.0),
            ("speed_gain", 0.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            replace(ExpertConfig.conservative(), **{field: value})

    def test_far_must_exceed_near(self):
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            replace(
                ExpertConfig.conservative(),
                conflict_near_time=5.0,
                conflict_far_time=4.0,
            )

    def test_comfort_brake_must_fit_vehicle(self):
        from dataclasses import replace

        cfg = replace(ExpertConfig.conservative(), comfort_brake=10.0)
        with pytest.raises(ConfigurationError):
            LeftTurnExpertPlanner(
                GEOMETRY,
                EGO,
                PassingWindowEstimator(GEOMETRY, ONCOMING),
                cfg,
            )


class TestGoDecision:
    def test_committed_inside_area(self):
        expert = _expert()
        assert expert.should_go(0.0, 6.0, 5.0, Interval(0.0, 10.0))

    def test_go_on_empty_window(self):
        assert _expert().should_go(0.0, -20.0, 10.0, Interval.EMPTY)

    def test_go_on_expired_window(self):
        assert _expert().should_go(10.0, -20.0, 10.0, Interval(2.0, 6.0))

    def test_anticipatory_go(self):
        """GO once the window closes before the ego can reach the line."""
        expert = _expert()
        # Front line 25 m away at 10 m/s: reach in ~2.2 s at go accel.
        window = Interval(0.0, 1.0)  # closes well before arrival
        assert expert.should_go(0.0, -20.0, 10.0, window)

    def test_yield_when_window_covers_arrival(self):
        expert = _expert()
        window = Interval(1.0, 30.0)
        assert not expert.should_go(0.0, -20.0, 10.0, window)

    def test_go_before_far_window(self):
        expert = _expert()
        # Clearing 25 m from 15 m/s takes < 2 s; window opens at 10 s.
        window = Interval(10.0, 14.0)
        assert expert.should_go(0.0, -10.0, 15.0, window)


class TestCommands:
    def test_go_command_eases_off_at_cruise(self):
        expert = _expert()
        cruise = expert.config.cruise_speed
        a_fast = expert.plan_from_window(0.0, 16.0, cruise + 1.0, Interval.EMPTY)
        a_slow = expert.plan_from_window(0.0, 16.0, cruise - 2.0, Interval.EMPTY)
        assert a_fast == 0.0
        assert a_slow == expert.config.go_accel

    def test_yield_brakes_when_fast_near_line(self):
        expert = _expert()
        window = Interval(1.0, 30.0)
        a = expert.plan_from_window(0.0, 0.0, 15.0, window)
        assert a < 0.0

    def test_yield_hard_brake_past_stop_point(self):
        expert = _expert()
        window = Interval(1.0, 30.0)
        # Within stop_margin of the line and still approaching.
        a = expert.plan_from_window(0.0, 4.0, 3.0, window)
        assert a == EGO.a_min

    def test_yield_creeps_forward_when_far_and_slow(self):
        expert = _expert()
        window = Interval(1.0, 30.0)
        a = expert.plan_from_window(0.0, -30.0, 1.0, window)
        assert a > 0.0

    def test_approach_speed_blend(self):
        expert = _expert()
        near = expert.approach_speed(0.0, Interval(0.5, 10.0))
        far = expert.approach_speed(0.0, Interval(20.0, 25.0))
        cfg = expert.config
        assert near == pytest.approx(cfg.conflict_cruise_speed)
        assert far == pytest.approx(cfg.cruise_speed)
        mid = expert.approach_speed(0.0, Interval(5.0, 10.0))
        assert cfg.conflict_cruise_speed < mid < cfg.cruise_speed

    def test_approach_speed_empty_window_is_cruise(self):
        expert = _expert()
        assert expert.approach_speed(
            0.0, Interval.EMPTY
        ) == expert.config.cruise_speed


class TestPlanFromContext:
    def test_plan_uses_estimator(self):
        expert = _expert()
        est = FusedEstimate(0.0, 50.0, 50.0, -10.0, -10.0, p=50.0, v=-10.0, a=0.0)
        window = expert.window_estimator.window(est)
        command = expert.plan_floats(0.0, -30.0, 10.0, 0.0, {1: est})
        assert command == expert.plan_from_window(
            0.0, -30.0, 10.0, window
        )
