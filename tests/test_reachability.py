"""Tests for interval reachability — including soundness vs the dynamics.

The safety theorem rests on Eq. (2) being a true over-approximation of
the saturating vehicle model; the hypothesis tests here drive the model
with arbitrary admissible acceleration sequences and assert containment.
Everything goes through ``ReachabilityAnalyzer.reach_box``, the one form
of Eq. (2); an exact state is the degenerate box.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits, VehicleModel
from repro.errors import ConfigurationError
from repro.filtering.reachability import ReachabilityAnalyzer
from repro.utils.intervals import Interval

#: Oncoming-style limits (negative velocities) and ego-style limits.
ONCOMING = VehicleLimits(v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0)
EGO = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)


def _from_state(r, position, velocity, stamp, now):
    """The reachable ``(position, velocity)`` intervals from an exact state."""
    p_lo, p_hi, v_lo, v_hi = r.reach_box(
        position, position, velocity, velocity, stamp, now
    )
    return Interval(p_lo, p_hi), Interval(v_lo, v_hi)


def _from_box(r, p_band, v_band, stamp, now):
    """The reachable intervals from interval initial knowledge."""
    p_lo, p_hi, v_lo, v_hi = r.reach_box(
        p_band.lo, p_band.hi, v_band.lo, v_band.hi, stamp, now
    )
    return Interval(p_lo, p_hi), Interval(v_lo, v_hi)


class TestScalarBounds:
    def test_zero_elapsed_is_identity(self):
        r = ReachabilityAnalyzer(EGO)
        p_lo, p_hi, _, _ = r.reach_box(5.0, 5.0, 10.0, 10.0, 0.0, 0.0)
        assert p_hi == 5.0
        assert p_lo == 5.0

    def test_max_position_no_saturation(self):
        r = ReachabilityAnalyzer(EGO)
        # 10 m/s + 4 m/s^2 for 1 s stays below 20 m/s.
        assert r.reach_box(0.0, 0.0, 10.0, 10.0, 0.0, 1.0)[1] == pytest.approx(12.0)

    def test_max_position_with_saturation(self):
        r = ReachabilityAnalyzer(EGO)
        # From 18 m/s: reach 20 after 0.5 s (9.5 m), cruise 1.5 s (30 m).
        assert r.reach_box(0.0, 0.0, 18.0, 18.0, 0.0, 2.0)[1] == pytest.approx(39.5)

    def test_min_position_braking_to_standstill(self):
        r = ReachabilityAnalyzer(EGO)
        # From 6 m/s braking at 6: stops after 1 s covering 3 m.
        assert r.reach_box(0.0, 0.0, 6.0, 6.0, 0.0, 5.0)[0] == pytest.approx(3.0)

    def test_velocity_bounds(self):
        r = ReachabilityAnalyzer(EGO)
        assert r.reach_box(0.0, 0.0, 10.0, 10.0, 0.0, 1.0)[3] == pytest.approx(14.0)
        assert r.reach_box(0.0, 0.0, 19.0, 19.0, 0.0, 1.0)[3] == 20.0
        assert r.reach_box(0.0, 0.0, 10.0, 10.0, 0.0, 1.0)[2] == pytest.approx(4.0)
        assert r.reach_box(0.0, 0.0, 3.0, 3.0, 0.0, 1.0)[2] == 0.0

    def test_negative_elapsed_rejected(self):
        r = ReachabilityAnalyzer(EGO)
        with pytest.raises(ConfigurationError):
            r.reach_box(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        # Within 1e-12 s of the stamp, the query counts as zero elapsed.
        assert r.reach_box(1.0, 1.0, 5.0, 5.0, 1.0, 1.0 - 1e-13) == (1.0, 1.0, 5.0, 5.0)


class TestBands:
    def test_band_from_state(self):
        r = ReachabilityAnalyzer(EGO)
        position, velocity = _from_state(r, 0.0, 10.0, stamp=1.0, now=2.0)
        assert position.lo < position.hi
        assert velocity.contains(10.0)

    def test_band_from_state_zero_age_is_point(self):
        r = ReachabilityAnalyzer(EGO)
        p_band, _ = _from_state(r, 3.0, 5.0, stamp=1.0, now=1.0)
        assert p_band.is_point
        assert p_band == Interval.point(3.0)

    def test_band_from_intervals_contains_point_bands(self):
        r = ReachabilityAnalyzer(EGO)
        p_band = Interval(0.0, 2.0)
        v_band = Interval(8.0, 12.0)
        position, velocity = _from_box(r, p_band, v_band, stamp=0.0, now=1.0)
        for p0 in (0.0, 1.0, 2.0):
            for v0 in (8.0, 10.0, 12.0):
                inner_p, inner_v = _from_state(r, p0, v0, 0.0, 1.0)
                assert position.contains_interval(inner_p)
                assert velocity.contains_interval(inner_v)

    def test_query_before_stamp_rejected(self):
        r = ReachabilityAnalyzer(EGO)
        with pytest.raises(ConfigurationError):
            _from_state(r, 0.0, 0.0, stamp=2.0, now=1.0)


def _rollout(limits, p0, v0, accels, dt):
    model = VehicleModel(limits)
    state = VehicleState(position=p0, velocity=v0)
    for a in accels:
        state = model.step(state, a, dt)
    return state


class TestSoundness:
    """Eq. (2) over-approximates every admissible behaviour."""

    @given(
        v0=st.floats(0.0, 20.0),
        accels=st.lists(st.floats(-6.0, 4.0), min_size=1, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_ego_style_rollouts_contained(self, v0, accels):
        dt = 0.05
        r = ReachabilityAnalyzer(EGO)
        final = _rollout(EGO, 0.0, v0, accels, dt)
        elapsed = len(accels) * dt
        position, velocity = _from_state(r, 0.0, v0, 0.0, elapsed)
        assert position.expand(1e-9).contains(final.position)
        assert velocity.expand(1e-9).contains(final.velocity)

    @given(
        v0=st.floats(-20.0, -2.0),
        accels=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_oncoming_style_rollouts_contained(self, v0, accels):
        """Negative-velocity (raw oncoming) coordinates work unchanged."""
        dt = 0.05
        r = ReachabilityAnalyzer(ONCOMING)
        final = _rollout(ONCOMING, 50.0, v0, accels, dt)
        elapsed = len(accels) * dt
        position, velocity = _from_state(r, 50.0, v0, 0.0, elapsed)
        assert position.expand(1e-9).contains(final.position)
        assert velocity.expand(1e-9).contains(final.velocity)

    @given(
        v0=st.floats(0.0, 20.0),
        p_err=st.floats(-1.0, 1.0),
        v_err=st.floats(-0.5, 0.5),
        accels=st.lists(st.floats(-6.0, 4.0), min_size=1, max_size=25),
    )
    @settings(max_examples=100, deadline=None)
    def test_interval_initial_knowledge_contained(
        self, v0, p_err, v_err, accels
    ):
        """Sensor-band propagation: truth inside band stays inside."""
        dt = 0.05
        r = ReachabilityAnalyzer(EGO)
        p_band = Interval.around(0.0 + p_err, 1.0)  # truth 0+p_err in band
        v_true = min(max(v0 + v_err, 0.0), 20.0)
        v_band = Interval.around(v0, 0.5 + 1e-9).intersect(Interval(0.0, 20.0))
        if not v_band.contains(v_true):
            return  # corner clipped away; not a valid premise
        final = _rollout(EGO, 0.0 + p_err, v_true, accels, dt)
        position, velocity = _from_box(r, p_band, v_band, 0.0, len(accels) * dt)
        assert position.expand(1e-9).contains(final.position)
        assert velocity.expand(1e-9).contains(final.velocity)

    @given(
        v0=st.floats(0.0, 20.0),
        t1=st.floats(0.0, 3.0),
        t2=st.floats(0.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_band_width_monotone_in_elapsed(self, v0, t1, t2):
        r = ReachabilityAnalyzer(EGO)
        early, late = sorted((t1, t2))
        p_early, _ = _from_state(r, 0.0, v0, 0.0, early)
        p_late, _ = _from_state(r, 0.0, v0, 0.0, late)
        assert p_late.width >= p_early.width - 1e-9
