"""Tests for band fusion and the fused-estimate container."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dynamics.vehicle import VehicleLimits
from repro.errors import FilterError
from repro.filtering.fusion import FusedEstimate, join_or_fallback
from repro.filtering.info_filter import InformationFilter
from repro.filtering.kalman import KalmanState
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from repro.utils.intervals import Interval

finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
ivs = st.tuples(finite, finite).map(lambda ab: Interval(*ab))


def _join(sound: Interval, refining: Interval) -> Interval:
    """:func:`join_or_fallback` on two intervals' bounds."""
    return Interval(*join_or_fallback(sound.lo, sound.hi, refining.lo, refining.hi))


class TestIntersectOrFallback:
    """The Section III-B join: intersect, or fall back to the sound band."""

    def test_overlapping_intersects(self):
        out = _join(Interval(0.0, 10.0), Interval(5.0, 15.0))
        assert out == Interval(5.0, 10.0)

    def test_disjoint_falls_back_to_sound(self):
        sound = Interval(0.0, 1.0)
        assert _join(sound, Interval(5.0, 6.0)) == sound

    def test_empty_refiner_falls_back(self):
        sound = Interval(0.0, 1.0)
        assert _join(sound, Interval.EMPTY) == sound

    def test_empty_sound_rejected(self):
        with pytest.raises(FilterError):
            _join(Interval.EMPTY, Interval(0.0, 1.0))

    @given(ivs.filter(bool), ivs)
    def test_result_always_within_sound(self, sound, refining):
        out = _join(sound, refining)
        assert sound.contains_interval(out)
        assert not out.is_empty


def _kalman_bands(position, sigma_p, velocity, sigma_v):
    """The ``mean ± 3 * std`` bands of a Kalman estimate, per axis."""
    kf = KalmanState(
        time=1.0,
        position=position,
        velocity=velocity,
        p00=sigma_p**2,
        p01=0.0,
        p11=sigma_v**2,
    )
    return (
        Interval.around(kf.position, 3.0 * math.sqrt(max(kf.p00, 0.0))),
        Interval.around(kf.velocity, 3.0 * math.sqrt(max(kf.p11, 0.0))),
    )


class TestFuseBands:
    """Each axis joins its sound band with the Kalman band."""

    POSITION = Interval(0.0, 10.0)
    VELOCITY = Interval(-15.0, -5.0)

    def test_tightens_both_axes(self):
        kf_position, kf_velocity = _kalman_bands(5.0, 1.0, -9.0, 1.0)
        assert _join(self.POSITION, kf_position) == Interval(2.0, 8.0)
        assert _join(self.VELOCITY, kf_velocity) == Interval(-12.0, -6.0)

    def test_keeps_time(self):
        filt = InformationFilter(
            VehicleLimits(v_min=-20.0, v_max=0.0, a_min=-3.0, a_max=3.0),
            NoiseBounds(delta_p=5.0, delta_v=5.0, delta_a=0.0),
            sensing_period=0.1,
        )
        filt.on_sensor_reading(SensorReading(1, 1.0, 5.0, -10.0, 0.0))
        fused = filt.estimate(1.0)
        assert fused.time == 1.0

    def test_disjoint_kalman_band_ignored(self):
        kf_position, _ = _kalman_bands(150.0, 50.0 / 3.0, -9.0, 1.0)
        assert _join(self.POSITION, kf_position) == self.POSITION


class TestFusedEstimate:
    def _nominal(self):
        """The nominal ``(p, v, a)``."""
        return 5.0, -10.0, 0.5

    def test_fields(self):
        est = FusedEstimate(2.0, 0.0, 10.0, -12.0, -8.0, *self._nominal(), 0.3)
        assert est.p_hi - est.p_lo == 10.0
        assert est.v_hi - est.v_lo == 4.0
        assert est.message_age == 0.3

    def test_empty_band_rejected(self):
        with pytest.raises(FilterError):
            FusedEstimate(0.0, math.inf, -math.inf, 0.0, 1.0, *self._nominal())

    def test_str_without_message(self):
        est = FusedEstimate(0.0, 0.0, 1.0, 0.0, 1.0, *self._nominal())
        assert "msg_age=-" in str(est)
