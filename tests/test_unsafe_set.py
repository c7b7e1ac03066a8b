"""Tests for slack, passing windows, and the boundary-safe-set logic."""

import math

import pytest

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.scenarios.left_turn.geometry import LeftTurnGeometry
from repro.scenarios.left_turn.unsafe_set import (
    LeftTurnSafetyModel,
    boundary_slack_margin,
    ego_passing_bounds,
    slack,
)
from repro.utils.intervals import Interval, bounds_overlap

GEOMETRY = LeftTurnGeometry()
EGO = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)
ONCOMING = VehicleLimits(v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0)
DT = 0.05


def _model():
    return LeftTurnSafetyModel(
        geometry=GEOMETRY,
        ego_limits=EGO,
        oncoming_limits=ONCOMING,
        dt_c=DT,
    )


def _oncoming_estimate(time, position, velocity):
    return {
        1: FusedEstimate(
            time, position, position, velocity, velocity, position, velocity, 0.0,
            message_age=0.0,
        )
    }


class TestSlack:
    def test_before_area(self):
        # d_b = 100/12 at v=10; slack = 5 - (-30) - 8.333 = 26.667.
        assert slack(-30.0, 10.0, GEOMETRY, EGO) == pytest.approx(80 / 3)

    def test_zero_speed_is_full_distance(self):
        assert slack(-30.0, 0.0, GEOMETRY, EGO) == pytest.approx(35.0)

    def test_inside_area_negative(self):
        assert slack(10.0, 5.0, GEOMETRY, EGO) == pytest.approx(-5.0)

    def test_past_area_infinite(self):
        assert slack(16.0, 5.0, GEOMETRY, EGO) == math.inf

    def test_negative_velocity_clamped(self):
        assert slack(-30.0, -3.0, GEOMETRY, EGO) == pytest.approx(35.0)

    def test_exactly_at_back_line_zero(self):
        assert slack(15.0, 0.0, GEOMETRY, EGO) == pytest.approx(0.0)


class TestEgoPassingWindow:
    def test_before_area_at_speed(self):
        lo, hi = ego_passing_bounds(2.0, -5.0, 10.0, GEOMETRY)
        assert lo == pytest.approx(3.0)
        assert hi == pytest.approx(4.0)

    def test_stationary_before_area_empty(self):
        lo, hi = ego_passing_bounds(0.0, -5.0, 0.0, GEOMETRY)
        assert lo > hi

    def test_inside_area_opens_now(self):
        lo, hi = ego_passing_bounds(1.0, 10.0, 5.0, GEOMETRY)
        assert (lo, hi) == (1.0, pytest.approx(2.0))

    def test_stationary_inside_area_unbounded(self):
        _, hi = ego_passing_bounds(1.0, 10.0, 0.0, GEOMETRY)
        assert hi == math.inf

    def test_past_area_empty(self):
        lo, hi = ego_passing_bounds(0.0, 16.0, 10.0, GEOMETRY)
        assert lo > hi


class TestBoundaryMargin:
    def test_positive(self):
        assert boundary_slack_margin(10.0, DT, EGO) > 0.0

    def test_grows_with_speed(self):
        assert boundary_slack_margin(15.0, DT, EGO) > boundary_slack_margin(
            5.0, DT, EGO
        )

    def test_formula(self):
        v = 10.0
        travel = v * DT + 0.5 * EGO.a_max * DT * DT
        factor = 1.0 - EGO.a_max / EGO.a_min
        assert boundary_slack_margin(v, DT, EGO) == pytest.approx(
            travel * factor
        )

    def test_margin_bounds_one_step_slack_drop(self):
        """No admissible step drops the slack by more than the margin."""
        from repro.dynamics.vehicle import VehicleModel

        model = VehicleModel(EGO)
        for v in (0.0, 3.0, 8.0, 15.0, 20.0):
            for p in (-20.0, -10.0, -3.0):
                s_now = slack(p, v, GEOMETRY, EGO)
                margin = boundary_slack_margin(v, DT, EGO)
                for a in (-6.0, -2.0, 0.0, 2.0, 4.0):
                    nxt = model.step(
                        VehicleState(position=p, velocity=v), a, DT
                    )
                    s_next = slack(
                        nxt.position, nxt.velocity, GEOMETRY, EGO
                    )
                    assert s_next >= s_now - margin - 1e-9


def _boundary(model, time, ego, estimates):
    """``X_b`` membership from the model's ``decide``."""
    return model.decide(time, ego.position, ego.velocity, estimates)[0]


def _unsafe(model, time, ego, estimates):
    """Estimated ``X_u`` membership from the model's ``decide``."""
    return model.decide(time, ego.position, ego.velocity, estimates)[1]


class TestSafetyModel:
    def test_unsafe_requires_negative_slack(self):
        model = _model()
        ego = VehicleState(position=-30.0, velocity=10.0)
        estimates = _oncoming_estimate(0.0, 40.0, -10.0)
        assert not _unsafe(model, 0.0, ego, estimates)

    def test_unsafe_inside_area_with_overlap(self):
        model = _model()
        # Ego inside the area at low speed; oncoming about to arrive.
        ego = VehicleState(position=8.0, velocity=2.0)
        estimates = _oncoming_estimate(0.0, 20.0, -12.0)
        assert _unsafe(model, 0.0, ego, estimates)

    def test_not_unsafe_when_oncoming_cleared(self):
        model = _model()
        ego = VehicleState(position=8.0, velocity=2.0)
        estimates = _oncoming_estimate(0.0, 3.0, -12.0)
        assert not _unsafe(model, 0.0, ego, estimates)

    def test_boundary_false_when_window_passed(self):
        model = _model()
        ego = VehicleState(position=4.9, velocity=0.5)
        estimates = _oncoming_estimate(0.0, 3.0, -12.0)
        assert not _boundary(model, 0.0, ego, estimates)

    def test_parked_ego_cannot_creep_into_occupied_area(self):
        """The creep hole: a parked ego guarded by the monitor never
        crosses the line even if the embedded planner floors it every
        step the monitor leaves it in control."""
        from repro.dynamics.vehicle import VehicleModel

        model = _model()
        dynamics = VehicleModel(EGO)
        ego = VehicleState(position=4.9, velocity=0.0)
        oncoming_pos = 16.0
        for step in range(100):
            t = step * DT
            estimates = _oncoming_estimate(t, oncoming_pos, -10.0)
            if _boundary(model, t, ego, estimates):
                command = EGO.a_min  # emergency stops/holds
            else:
                command = EGO.a_max  # adversarial embedded planner
            ego = dynamics.step(ego, command, DT)
            oncoming_pos -= 10.0 * DT
            if oncoming_pos > GEOMETRY.oncoming_back:
                assert ego.position <= GEOMETRY.p_front + 1e-9

    def test_boundary_true_approaching_fast_with_conflict(self):
        model = _model()
        # Slack close to zero: v=12 -> braking 12 m; front gap 12.5 m.
        ego = VehicleState(position=-7.5, velocity=12.0)
        estimates = _oncoming_estimate(0.0, 30.0, -12.0)
        assert _boundary(model, 0.0, ego, estimates)

    def test_boundary_false_with_large_slack_and_far_conflict(self):
        model = _model()
        ego = VehicleState(position=-30.0, velocity=5.0)
        estimates = _oncoming_estimate(0.0, 55.0, -10.0)
        assert not _boundary(model, 0.0, ego, estimates)

    def test_committed_state_with_overlap_needs_escape(self):
        model = _model()
        # Inside the area while the oncoming vehicle may still arrive.
        ego = VehicleState(position=6.0, velocity=3.0)
        estimates = _oncoming_estimate(0.0, 25.0, -12.0)
        assert _boundary(model, 0.0, ego, estimates)

    def test_committed_state_outwaiting_window_is_free(self):
        model = _model()
        # Ego committed but slow and far; full-throttle entry is later
        # than the latest possible oncoming exit.
        ego = VehicleState(position=-14.0, velocity=13.0)
        estimates = _oncoming_estimate(0.0, 15.5, -18.0)
        entry_ff, _ = model._full_throttle_times(0.0, -14.0, 13.0)
        _, window_hi = model.oncoming_bounds(0.0, estimates)
        if entry_ff >= window_hi:
            assert not _boundary(model, 0.0, ego, estimates)

    def test_past_area_never_boundary(self):
        model = _model()
        ego = VehicleState(position=16.0, velocity=5.0)
        estimates = _oncoming_estimate(0.0, 30.0, -12.0)
        assert not _boundary(model, 0.0, ego, estimates)

    def test_missing_estimate_rejected(self):
        model = _model()
        ego = VehicleState(position=0.0, velocity=5.0)
        with pytest.raises(ScenarioError):
            _boundary(model, 0.0, ego, {})

    def test_invalid_oncoming_index_rejected(self):
        with pytest.raises(ScenarioError):
            LeftTurnSafetyModel(
                geometry=GEOMETRY,
                ego_limits=EGO,
                oncoming_limits=ONCOMING,
                dt_c=DT,
                oncoming_index=0,
            )


class TestDegenerateWindows:
    """Degenerate ``[x, x]`` occupancy windows in set membership."""

    def test_ego_window_at_back_line_is_a_point(self):
        # An ego crossing the back line at speed occupies the area for
        # one instant: the projected window is the degenerate [t, t].
        lo, hi = ego_passing_bounds(3.0, GEOMETRY.p_back, 5.0, GEOMETRY)
        assert Interval(lo, hi) == Interval.point(3.0)
        # Closed-interval semantics: that instant still counts.
        assert bounds_overlap(lo, hi, 2.0, 4.0)
        assert not bounds_overlap(lo, hi, 3.5, 4.0)

    def test_unsafe_membership_with_point_ego_window(self):
        # Exactly at the back line the slack is zero, so the degenerate
        # window never puts the ego in the *unsafe* set on its own.
        time = 3.0
        ego = VehicleState(position=GEOMETRY.p_back, velocity=5.0)
        estimates = _oncoming_estimate(time, 60.0, -10.0)
        assert not _unsafe(_model(), time, ego, estimates)

    def test_boundary_membership_with_point_ego_window(self):
        # ...but the boundary set stays engaged while the conflict
        # window is open: the committed branch must not be fooled by a
        # zero-width projected occupancy.
        time = 3.0
        ego = VehicleState(position=GEOMETRY.p_back, velocity=5.0)
        estimates = _oncoming_estimate(time, 60.0, -10.0)
        model = _model()
        _, oncoming_hi = model.oncoming_bounds(time, estimates)
        assert oncoming_hi > time  # the conflict is genuinely ahead
        assert _boundary(model, time, ego, estimates)
