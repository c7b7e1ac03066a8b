"""Tests for acceleration profiles."""

import pytest

from repro.dynamics.profiles import (
    BrakeThenGoProfile,
    ConstantProfile,
    PiecewiseProfile,
    RandomSequenceProfile,
    RandomWalkProfile,
    SinusoidProfile,
    SpeedHoldProfile,
)
from repro.errors import ConfigurationError
from repro.utils.rng import RngStream

#: The state a profile is called with: position, velocity, acceleration.
STATE = (0.0, 10.0, 0.0)


class TestConstant:
    def test_value(self):
        profile = ConstantProfile(1.5)
        assert profile(0, 0.0, *STATE) == 1.5
        assert profile(100, 5.0, *STATE) == 1.5

    def test_default_zero(self):
        assert ConstantProfile()(0, 0.0, *STATE) == 0.0


class TestRandomSequence:
    def test_bounded(self):
        profile = RandomSequenceProfile(RngStream(1), a_low=-2.0, a_high=2.0)
        values = [profile(i, i * 0.05, *STATE) for i in range(100)]
        assert all(-2.0 <= v <= 2.0 for v in values)

    def test_consistent_on_requery(self):
        profile = RandomSequenceProfile(RngStream(2))
        first = profile(7, 0.35, *STATE)
        assert profile(7, 0.35, *STATE) == first

    def test_reproducible_across_instances(self):
        a = RandomSequenceProfile(RngStream(3))
        b = RandomSequenceProfile(RngStream(3))
        assert [a(i, 0.0, *STATE) for i in range(10)] == [
            b(i, 0.0, *STATE) for i in range(10)
        ]

    def test_realized_sequence(self):
        profile = RandomSequenceProfile(RngStream(4))
        profile(2, 0.1, *STATE)
        assert len(profile.realized_sequence) == 3

    def test_negative_index_rejected(self):
        profile = RandomSequenceProfile(RngStream(5))
        with pytest.raises(ConfigurationError):
            profile(-1, 0.0, *STATE)

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomSequenceProfile(RngStream(0), a_low=2.0, a_high=-2.0)


class TestRandomWalk:
    def test_bounded(self):
        profile = RandomWalkProfile(RngStream(1), a_low=-1.0, a_high=1.0)
        values = [profile(i, 0.0, *STATE) for i in range(200)]
        assert all(-1.0 <= v <= 1.0 for v in values)

    def test_step_size_bounded(self):
        profile = RandomWalkProfile(RngStream(2), max_step=0.3)
        values = [profile(i, 0.0, *STATE) for i in range(100)]
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        assert max(diffs) <= 0.3 + 1e-12

    def test_initial_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomWalkProfile(RngStream(0), a_low=-1.0, a_high=1.0, initial=5.0)


class TestPiecewise:
    def test_knot_selection(self):
        profile = PiecewiseProfile([(0.0, 1.0), (2.0, -1.0)])
        assert profile(0, 0.5, *STATE) == 1.0
        assert profile(0, 2.0, *STATE) == -1.0
        assert profile(0, 5.0, *STATE) == -1.0

    def test_before_first_knot_is_zero(self):
        profile = PiecewiseProfile([(1.0, 2.0)])
        assert profile(0, 0.5, *STATE) == 0.0

    def test_unordered_knots_sorted(self):
        profile = PiecewiseProfile([(2.0, -1.0), (0.0, 1.0)])
        assert profile(0, 1.0, *STATE) == 1.0

    def test_duplicate_times_rejected(self):
        with pytest.raises(ConfigurationError):
            PiecewiseProfile([(1.0, 2.0), (1.0, 3.0)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            PiecewiseProfile([])


class TestSinusoid:
    def test_amplitude_bound(self):
        profile = SinusoidProfile(amplitude=2.0, period=4.0)
        values = [profile(0, t * 0.1, *STATE) for t in range(100)]
        assert all(abs(v) <= 2.0 for v in values)

    def test_zero_at_phase_zero(self):
        assert SinusoidProfile(amplitude=1.0)(0, 0.0, *STATE) == pytest.approx(
            0.0
        )

    def test_bad_period_rejected(self):
        with pytest.raises(ConfigurationError):
            SinusoidProfile(period=0.0)


class TestBrakeThenGo:
    def test_phases(self):
        profile = BrakeThenGoProfile(
            t_brake=1.0, t_go=3.0, brake_accel=-3.0, go_accel=2.0
        )
        assert profile(0, 0.5, *STATE) == 0.0
        assert profile(0, 2.0, *STATE) == -3.0
        assert profile(0, 4.0, *STATE) == 2.0

    def test_ordering_validated(self):
        with pytest.raises(ConfigurationError):
            BrakeThenGoProfile(t_brake=3.0, t_go=1.0)


class TestSpeedHold:
    def test_tracks_target(self):
        profile = SpeedHoldProfile(v_target=15.0, gain=1.0)
        slow = (0.0, 10.0, 0.0)
        fast = (0.0, 20.0, 0.0)
        assert profile(0, 0.0, *slow) > 0.0
        assert profile(0, 0.0, *fast) < 0.0

    def test_clipped(self):
        profile = SpeedHoldProfile(v_target=30.0, gain=10.0, a_high=2.0)
        assert profile(0, 0.0, *STATE) == 2.0

    def test_switch_target(self):
        profile = SpeedHoldProfile(
            v_target=10.0, switch_time=5.0, v_target_after=0.0
        )
        at_speed = (0.0, 10.0, 0.0)
        assert profile(0, 0.0, *at_speed) == pytest.approx(0.0)
        assert profile(0, 6.0, *at_speed) < 0.0

    def test_switch_requires_both_fields(self):
        with pytest.raises(ConfigurationError):
            SpeedHoldProfile(v_target=10.0, switch_time=5.0)
