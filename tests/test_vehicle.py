"""Tests for the saturating double-integrator vehicle model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits, VehicleModel
from repro.errors import ConfigurationError

LIMITS = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)


class TestVehicleLimits:
    def test_valid(self):
        limits = VehicleLimits(v_min=-5.0, v_max=5.0, a_min=-1.0, a_max=1.0)
        assert limits.v_min == -5.0

    def test_reversed_velocity_rejected(self):
        with pytest.raises(ConfigurationError):
            VehicleLimits(v_min=5.0, v_max=-5.0, a_min=-1.0, a_max=1.0)

    def test_nonnegative_a_min_rejected(self):
        with pytest.raises(ConfigurationError):
            VehicleLimits(v_min=0.0, v_max=10.0, a_min=0.0, a_max=1.0)

    def test_nonpositive_a_max_rejected(self):
        with pytest.raises(ConfigurationError):
            VehicleLimits(v_min=0.0, v_max=10.0, a_min=-1.0, a_max=0.0)

    def test_clip_acceleration(self):
        assert LIMITS.clip_acceleration(100.0) == 4.0
        assert LIMITS.clip_acceleration(-100.0) == -6.0
        assert LIMITS.clip_acceleration(1.0) == 1.0

    def test_clip_velocity(self):
        assert LIMITS.clip_velocity(25.0) == 20.0
        assert LIMITS.clip_velocity(-1.0) == 0.0

    def test_admissible_velocity(self):
        assert LIMITS.admissible_velocity(10.0)
        assert not LIMITS.admissible_velocity(21.0)


class TestStep:
    def setup_method(self):
        self.model = VehicleModel(LIMITS)

    def test_exact_double_integrator(self):
        s = VehicleState(position=0.0, velocity=10.0)
        nxt = self.model.step(s, 2.0, 0.1)
        assert nxt.velocity == pytest.approx(10.2)
        assert nxt.position == pytest.approx(10.0 * 0.1 + 0.5 * 2.0 * 0.01)

    def test_zero_accel_constant_speed(self):
        s = VehicleState(position=5.0, velocity=8.0)
        nxt = self.model.step(s, 0.0, 0.5)
        assert nxt.velocity == 8.0
        assert nxt.position == pytest.approx(9.0)

    def test_command_clipped_to_limits(self):
        s = VehicleState(position=0.0, velocity=10.0)
        nxt = self.model.step(s, 100.0, 0.1)
        assert nxt.acceleration == 4.0

    def test_saturates_at_v_max(self):
        s = VehicleState(position=0.0, velocity=19.9)
        nxt = self.model.step(s, 4.0, 1.0)
        assert nxt.velocity == 20.0

    def test_saturation_position_exact(self):
        # From 19 m/s at +4: hits 20 m/s after 0.25 s covering
        # 19*0.25 + 0.5*4*0.25^2 = 4.875 m, then cruises 0.75 s at 20.
        s = VehicleState(position=0.0, velocity=19.0)
        nxt = self.model.step(s, 4.0, 1.0)
        assert nxt.position == pytest.approx(4.875 + 15.0)

    def test_saturates_at_v_min(self):
        s = VehicleState(position=0.0, velocity=1.0)
        nxt = self.model.step(s, -6.0, 1.0)
        assert nxt.velocity == 0.0
        # Stops after 1/6 s covering 1/12 m, then parked.
        assert nxt.position == pytest.approx(1.0 / 12.0)

    def test_already_at_bound_holds(self):
        s = VehicleState(position=0.0, velocity=20.0)
        nxt = self.model.step(s, 4.0, 0.5)
        assert nxt.velocity == 20.0
        assert nxt.position == pytest.approx(10.0)

    def test_parked_stays_parked_under_braking(self):
        s = VehicleState(position=3.0, velocity=0.0)
        nxt = self.model.step(s, -6.0, 1.0)
        assert nxt.velocity == 0.0
        assert nxt.position == 3.0

    def test_rejects_nonpositive_dt(self):
        s = VehicleState(position=0.0, velocity=0.0)
        with pytest.raises(ConfigurationError):
            self.model.step(s, 0.0, 0.0)


class TestSimulate:
    def test_returns_all_states(self):
        model = VehicleModel(LIMITS)
        s = VehicleState(position=0.0, velocity=5.0)
        states = model.simulate(s, [1.0, 1.0, -1.0], 0.1)
        assert len(states) == 4
        assert states[0] is s

    def test_composition_matches_single_steps(self):
        model = VehicleModel(LIMITS)
        s = VehicleState(position=0.0, velocity=5.0)
        accels = [2.0, -3.0, 0.5]
        manual = s
        for a in accels:
            manual = model.step(manual, a, 0.05)
        auto = model.simulate(s, accels, 0.05)[-1]
        assert auto.position == pytest.approx(manual.position)
        assert auto.velocity == pytest.approx(manual.velocity)


class TestStepProperties:
    @given(
        v0=st.floats(0.0, 20.0),
        accel=st.floats(-10.0, 10.0),
        dt=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200)
    def test_velocity_always_within_limits(self, v0, accel, dt):
        model = VehicleModel(LIMITS)
        nxt = model.step(VehicleState(position=0.0, velocity=v0), accel, dt)
        assert LIMITS.v_min <= nxt.velocity <= LIMITS.v_max

    @given(
        v0=st.floats(0.0, 20.0),
        accel=st.floats(-6.0, 4.0),
        dt=st.floats(0.01, 0.2),
    )
    @settings(max_examples=200)
    def test_fine_substeps_converge_to_single_step(self, v0, accel, dt):
        """Saturation-exact integration: substeps give the same answer."""
        model = VehicleModel(LIMITS)
        s = VehicleState(position=0.0, velocity=v0)
        single = model.step(s, accel, dt)
        n = 16
        multi = s
        for _ in range(n):
            multi = model.step(multi, accel, dt / n)
        assert multi.position == pytest.approx(single.position, abs=1e-9)
        assert multi.velocity == pytest.approx(single.velocity, abs=1e-9)

    @given(v0=st.floats(0.0, 20.0), dt=st.floats(0.01, 1.0))
    @settings(max_examples=100)
    def test_position_monotone_for_forward_vehicle(self, v0, dt):
        # v_min = 0 means a forward-only vehicle never moves backwards.
        model = VehicleModel(LIMITS)
        nxt = model.step(VehicleState(position=0.0, velocity=v0), -6.0, dt)
        assert nxt.position >= 0.0
