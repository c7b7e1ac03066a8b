"""Tests for left-turn geometry and arrival-time kinematics."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits, VehicleModel
from repro.errors import ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.scenarios.left_turn.geometry import (
    NEVER,
    LeftTurnGeometry,
    arrival_time_under,
    earliest_arrival_time,
    latest_arrival_time,
)
from repro.scenarios.left_turn.passing_time import (
    aggressive_bounds,
    conservative_bounds,
    speed_limits,
)


class TestGeometryConstruction:
    def test_defaults_match_paper(self):
        g = LeftTurnGeometry()
        assert g.p_front == 5.0
        assert g.p_back == 15.0
        assert g.p_target == 20.0

    def test_reversed_area_rejected(self):
        with pytest.raises(ScenarioError):
            LeftTurnGeometry(p_front=15.0, p_back=5.0)

    def test_oncoming_lines_ordering_enforced(self):
        with pytest.raises(ScenarioError):
            LeftTurnGeometry(oncoming_front=5.0, oncoming_back=15.0)

    def test_target_before_back_rejected(self):
        with pytest.raises(ScenarioError):
            LeftTurnGeometry(p_target=10.0)


class TestEgoSide:
    g = LeftTurnGeometry()

    def test_distances(self):
        assert self.g.ego_distance_to_front(-30.0) == 35.0
        assert self.g.ego_distance_to_back(-30.0) == 45.0

    def test_inside_open_interval(self):
        assert not self.g.ego_inside(5.0)
        assert self.g.ego_inside(5.001)
        assert self.g.ego_inside(14.999)
        assert not self.g.ego_inside(15.0)

    def test_cleared(self):
        assert self.g.ego_cleared(15.1)
        assert not self.g.ego_cleared(15.0)

    def test_target(self):
        assert self.g.ego_reached_target(20.0)
        assert not self.g.ego_reached_target(19.9)


class TestOncomingSide:
    g = LeftTurnGeometry()

    def test_distances_along_travel(self):
        # The oncoming vehicle travels toward decreasing coordinates.
        assert self.g.oncoming_distance_to_front(50.0) == 35.0
        assert self.g.oncoming_distance_to_back(50.0) == 45.0

    def test_inside_open_interval(self):
        assert not self.g.oncoming_inside(15.0)
        assert self.g.oncoming_inside(14.9)
        assert not self.g.oncoming_inside(5.0)

    def test_cleared(self):
        assert self.g.oncoming_cleared(4.9)
        assert not self.g.oncoming_cleared(5.0)

    def test_collision_requires_both_inside(self):
        assert self.g.collision(10.0, 10.0)
        assert not self.g.collision(10.0, 20.0)
        assert not self.g.collision(2.0, 10.0)
        # collision writes out ego_inside and oncoming_inside: the same
        # open interiors on the edges, NaN and the infinities.
        edges = [
            float("nan"), float("-inf"), -0.0, 0.0, 4.999, 5.0, 5.001,
            10.0, 14.999, 15.0, 15.001, float("inf"),
        ]
        for ego in edges:
            for oncoming in edges:
                assert self.g.collision(ego, oncoming) == (
                    self.g.ego_inside(ego) and self.g.oncoming_inside(oncoming)
                ), (ego, oncoming)


class TestEarliestArrival:
    def test_already_arrived(self):
        assert earliest_arrival_time(-1.0, 10.0, 20.0, 3.0) == 0.0
        assert earliest_arrival_time(0.0, 10.0, 20.0, 3.0) == 0.0

    def test_constant_speed(self):
        assert earliest_arrival_time(30.0, 10.0, 20.0, 0.0) == pytest.approx(
            3.0
        )

    def test_stationary_no_accel_never_arrives(self):
        assert earliest_arrival_time(10.0, 0.0, 20.0, 0.0) == NEVER

    def test_pure_acceleration_branch(self):
        # d = v t + a t^2 / 2 with v=0, a=2, d=4 -> t=2.
        assert earliest_arrival_time(4.0, 0.0, 100.0, 2.0) == pytest.approx(
            2.0
        )

    def test_saturating_branch(self):
        # v=18, cap 20, a=4: d_th = (400-324)/8 = 9.5.
        # For d=29.5: 0.5 s ramp + 20/20 = 1 s cruise = 1.5 s.
        assert earliest_arrival_time(29.5, 18.0, 20.0, 4.0) == pytest.approx(
            1.5
        )

    def test_invalid_cap_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            earliest_arrival_time(1.0, 0.0, 0.0, 1.0)

    def test_negative_accel_cap_rejected(self):
        with pytest.raises(ScenarioError):
            earliest_arrival_time(1.0, 0.0, 10.0, -1.0)


class TestLatestArrival:
    def test_already_arrived(self):
        assert latest_arrival_time(0.0, 10.0, 2.0, -3.0) == 0.0

    def test_can_stop_short_never_arrives(self):
        # v=5, decel 3: stop distance 25/6 < 10.
        assert latest_arrival_time(10.0, 5.0, 0.0, -3.0) == NEVER

    def test_cannot_stop_before(self):
        # v=10, decel 2: stop distance 25 > 16; d = vt - t^2:
        # 16 = 10 t - t^2 -> t = 2.
        assert latest_arrival_time(16.0, 10.0, 0.0, -2.0) == pytest.approx(2.0)

    def test_floor_then_crawl(self):
        # v=10 -> floor 2 at decel 2 after 4 s covering 24 m; then
        # 6 m at 2 m/s = 3 s.
        assert latest_arrival_time(30.0, 10.0, 2.0, -2.0) == pytest.approx(7.0)

    def test_constant_speed(self):
        assert latest_arrival_time(30.0, 10.0, 2.0, 0.0) == pytest.approx(3.0)

    def test_invalid_floor_rejected(self):
        with pytest.raises(ScenarioError):
            latest_arrival_time(1.0, 5.0, -1.0, -2.0)

    def test_positive_a_floor_rejected(self):
        with pytest.raises(ScenarioError):
            latest_arrival_time(1.0, 5.0, 0.0, 1.0)


class TestArrivalTimeUnder:
    def test_positive_accel_matches_earliest(self):
        assert arrival_time_under(20.0, 8.0, 2.0, 15.0, 0.0) == pytest.approx(
            earliest_arrival_time(20.0, 8.0, 15.0, 2.0)
        )

    def test_negative_accel_matches_latest(self):
        assert arrival_time_under(20.0, 8.0, -2.0, 30.0, 2.0) == pytest.approx(
            latest_arrival_time(20.0, 8.0, 2.0, -2.0)
        )

    def test_zero_accel(self):
        assert arrival_time_under(20.0, 8.0, 0.0, 30.0, 0.0) == pytest.approx(
            2.5
        )

    def test_decelerating_to_stop_never_arrives(self):
        assert arrival_time_under(100.0, 5.0, -3.0, 30.0, 0.0) == NEVER

    def test_invalid_velocity_bounds_rejected(self):
        with pytest.raises(ScenarioError):
            arrival_time_under(1.0, 0.0, 0.0, 1.0, 2.0)


class TestArrivalAgainstSimulation:
    """Closed forms must match the saturating integrator."""

    LIMITS = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)

    def _simulated_arrival(self, distance, v0, accel, dt=0.001):
        model = VehicleModel(self.LIMITS)
        state = VehicleState(position=0.0, velocity=v0)
        t = 0.0
        for _ in range(200_000):
            if state.position >= distance:
                return t
            state = model.step(state, accel, dt)
            t += dt
        return NEVER

    @given(
        distance=st.floats(1.0, 60.0),
        v0=st.floats(0.0, 20.0),
        accel=st.floats(0.5, 4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_earliest_matches_integration(self, distance, v0, accel):
        closed = earliest_arrival_time(distance, v0, 20.0, accel)
        simulated = self._simulated_arrival(distance, v0, accel)
        assert simulated == pytest.approx(closed, abs=0.01)

    @given(
        distance=st.floats(1.0, 40.0),
        v0=st.floats(1.0, 20.0),
        decel=st.floats(-4.0, -0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_latest_matches_integration(self, distance, v0, decel):
        # Exactly at the reach/no-reach boundary (stopping distance ==
        # target distance) the dt=1e-3 integrator cannot resolve the
        # outcome the closed form decides by sub-ulp margins; the
        # property is only well-posed away from the knife edge.
        assume(abs(v0 * v0 / (2.0 * -decel) - distance) > 0.01)
        closed = latest_arrival_time(distance, v0, 0.0, decel)
        simulated = self._simulated_arrival(distance, v0, decel)
        if closed == NEVER:
            assert simulated == NEVER
        else:
            assert simulated == pytest.approx(closed, abs=0.01)


class TestTraversalWindow:
    """The occupancy window Eq. (7) composes: earliest entry, latest exit.

    An exact oncoming state with ``d_front``/``d_back`` metres to the
    default area's lines, through ``conservative_bounds`` (and the
    Eq. (8) ``aggressive_bounds`` for a vehicle that never enters).
    """

    def _exact(self, d_back, velocity, accel=0.0):
        position = LeftTurnGeometry().oncoming_back + d_back
        return FusedEstimate.of(
            0.0, position, position, velocity, velocity, position, velocity, accel
        )

    def test_basic_window(self):
        # d_front 20, d_back 30 at 10 m/s; speed within [2, 20], |a| <= 3.
        limits = VehicleLimits(v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0)
        lo, hi = conservative_bounds(
            self._exact(30.0, -10.0), LeftTurnGeometry(), speed_limits(limits)
        )
        assert lo < hi
        assert lo <= 20.0 / 10.0  # at least as early as constant speed

    def test_cleared_vehicle_empty(self):
        limits = VehicleLimits(v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0)
        lo, hi = conservative_bounds(
            self._exact(-1.0, -10.0), LeftTurnGeometry(), speed_limits(limits)
        )
        assert lo > hi

    def test_unreachable_entry_empty(self):
        # Standing still, no speed-up allowed and a zero speed floor: the
        # vehicle never reaches the front line.
        limits = VehicleLimits(v_min=-20.0, v_max=0.0, a_min=-3.0, a_max=3.0)
        lo, hi = aggressive_bounds(
            self._exact(20.0, 0.0), LeftTurnGeometry(), speed_limits(limits), 0.0, 0.0
        )
        assert lo > hi
