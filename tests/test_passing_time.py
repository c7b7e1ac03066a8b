"""Tests for the oncoming vehicle's passing-window estimation.

Load-bearing properties:

* the conservative (Eq. (7)) window computed from any band containing
  the true state contains the true passing interval of every admissible
  behaviour — this is what makes the runtime monitor sound;
* the aggressive (Eq. (8)) window is compact and sits near the true
  passing time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits, VehicleModel
from repro.errors import ConfigurationError
from repro.filtering.fusion import FusedEstimate
from repro.scenarios.left_turn.geometry import LeftTurnGeometry
from repro.scenarios.left_turn.passing_time import (
    PassingWindowEstimator,
    aggressive_bounds,
    conservative_bounds,
    speed_limits,
)
from repro.utils.intervals import Interval
from tests import shield_oracle

GEOMETRY = LeftTurnGeometry()
LIMITS = VehicleLimits(v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0)
SPEEDS = speed_limits(LIMITS)
DT = 0.05


def _conservative(est):
    """The Eq. (7) window ``(lo, hi)``; empty when ``lo > hi``."""
    return conservative_bounds(est, GEOMETRY, SPEEDS)


def _aggressive(est, a_buf, v_buf):
    """The Eq. (8) window ``(lo, hi)``; empty when ``lo > hi``."""
    return aggressive_bounds(est, GEOMETRY, SPEEDS, a_buf, v_buf)


def _estimate(time, position, velocity, accel=0.0, p_rad=0.0, v_rad=0.0):
    return FusedEstimate(
        time,
        position - p_rad,
        position + p_rad,
        velocity - v_rad,
        velocity + v_rad,
        position,
        velocity,
        accel,
        message_age=0.0,
    )


def _true_passing(position, velocity, accels):
    """Simulate and return the (entry, exit) times of the unsafe area."""
    model = VehicleModel(LIMITS)
    state = VehicleState(position=position, velocity=velocity)
    entry = exit_ = None
    t = 0.0
    for a in accels:
        if entry is None and state.position <= GEOMETRY.oncoming_front:
            entry = t
        if exit_ is None and state.position < GEOMETRY.oncoming_back:
            exit_ = t
            break
        state = model.step(state, a, DT)
        t += DT
    return entry, exit_


class TestConservativeWindow:
    def test_exact_state_window_brackets_constant_speed(self):
        est = _estimate(0.0, 50.0, -10.0)
        lo, hi = _conservative(est)
        # Constant speed: enters at 3.5 s, exits at 4.5 s.
        assert lo <= 3.5
        assert hi >= 4.5

    def test_cleared_band_is_empty(self):
        est = _estimate(0.0, 4.0, -10.0)
        lo, hi = _conservative(est)
        assert lo > hi

    def test_band_not_fully_cleared_is_not_empty(self):
        est = _estimate(0.0, 4.0, -10.0, p_rad=2.0)  # band [2, 6]
        lo, hi = _conservative(est)
        assert lo <= hi

    def test_wider_band_wider_window(self):
        tight_lo, tight_hi = _conservative(
            _estimate(0.0, 50.0, -10.0, p_rad=0.5, v_rad=0.5)
        )
        wide_lo, wide_hi = _conservative(
            _estimate(0.0, 50.0, -10.0, p_rad=3.0, v_rad=2.0)
        )
        assert wide_lo <= tight_lo
        assert wide_hi >= tight_hi

    def test_absolute_times_offset_by_estimate_time(self):
        lo0, _ = _conservative(_estimate(0.0, 50.0, -10.0))
        lo5, _ = _conservative(_estimate(5.0, 50.0, -10.0))
        assert lo5 == pytest.approx(lo0 + 5.0)

    @given(
        position=st.floats(20.0, 60.0),
        velocity=st.floats(-14.0, -6.0),
        accels=st.lists(st.floats(-2.0, 2.0), min_size=150, max_size=150),
        p_rad=st.floats(0.0, 2.0),
        v_rad=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_soundness_against_rollouts(
        self, position, velocity, accels, p_rad, v_rad
    ):
        """The Eq. (7) window contains every admissible passing time."""
        est = _estimate(0.0, position, velocity, p_rad=p_rad, v_rad=v_rad)
        lo, hi = _conservative(est)
        entry, exit_ = _true_passing(position, velocity, accels)
        if entry is not None:
            assert lo <= entry + 1e-6
        if exit_ is not None:
            assert hi >= exit_ - 1e-6


class TestAggressiveWindow:
    def test_nested_inside_conservative_for_exact_state(self):
        est = _estimate(0.0, 50.0, -10.0, accel=0.0)
        cons = Interval(*_conservative(est))
        aggr = Interval(*_aggressive(est, a_buf=0.5, v_buf=1.0))
        assert cons.contains_interval(aggr)

    def test_close_to_constant_speed_truth(self):
        est = _estimate(0.0, 50.0, -10.0, accel=0.0)
        lo, hi = _aggressive(est, a_buf=0.5, v_buf=1.0)
        # Truth: [3.5, 4.5] at constant speed.
        assert lo == pytest.approx(3.5, abs=1.0)
        assert hi == pytest.approx(4.5, abs=1.5)

    def test_zero_buffers_tightest(self):
        est = _estimate(0.0, 50.0, -10.0, accel=0.0)
        tight_lo, tight_hi = _aggressive(est, a_buf=0.0, v_buf=0.0)
        loose_lo, loose_hi = _aggressive(est, a_buf=1.0, v_buf=2.0)
        assert loose_lo <= tight_lo + 1e-9
        assert loose_hi >= tight_hi - 1e-9

    def test_cleared_nominal_empty(self):
        est = _estimate(0.0, 4.0, -10.0)
        lo, hi = _aggressive(est, a_buf=0.5, v_buf=1.0)
        assert lo > hi

    def test_negative_buffers_rejected(self):
        with pytest.raises(ConfigurationError):
            PassingWindowEstimator(
                GEOMETRY, LIMITS, aggressive=True, a_buf=-0.1, v_buf=0.0
            )

    def test_decelerating_nominal_can_never_arrive(self):
        # Strongly decelerating distant vehicle: the aggressive estimate
        # concludes it never arrives (window empty); the monitor's
        # conservative window still covers it.
        est = _estimate(0.0, 60.0, -3.0, accel=2.5)  # raw +a = slowing
        aggr = Interval(*_aggressive(est, a_buf=0.2, v_buf=0.2))
        cons = Interval(*_conservative(est))
        assert aggr.is_empty or aggr.lo > cons.lo
        assert not cons.is_empty


class TestEstimatorBundle:
    def test_mode_switch(self):
        est = _estimate(0.0, 50.0, -10.0)
        cons = PassingWindowEstimator(GEOMETRY, LIMITS, aggressive=False)
        aggr = PassingWindowEstimator(
            GEOMETRY, LIMITS, aggressive=True, a_buf=0.5, v_buf=1.0
        )
        assert cons.window(est) == Interval(*_conservative(est))
        assert aggr.window(est) == Interval(*_aggressive(est, 0.5, 1.0))

    def test_bounds_match_window(self):
        est = _estimate(1.0, 50.0, -10.0, accel=0.5, p_rad=1.0, v_rad=0.5)
        for aggressive in (False, True):
            estimator = PassingWindowEstimator(GEOMETRY, LIMITS, aggressive)
            assert Interval(*estimator.bounds(est)) == estimator.window(est)
        cleared = _estimate(1.0, 0.0, -10.0)
        lo, hi = PassingWindowEstimator(GEOMETRY, LIMITS).bounds(cleared)
        assert lo > hi


class TestEstimatorBuffers:
    """Bad Eq. (8) buffers fail at construction, not per planned step."""

    @pytest.mark.parametrize(
        "a_buf, v_buf, message",
        [
            (-0.5, 1.0, "a_buf must be >= 0, got -0.5"),
            (float("nan"), 1.0, "a_buf must be finite, got nan"),
            (0.5, -1.0, "v_buf must be >= 0, got -1.0"),
            (0.5, float("nan"), "v_buf must be finite, got nan"),
            (0.5, float("inf"), "v_buf must be finite, got inf"),
        ],
    )
    def test_aggressive_rejects_bad_buffer(self, a_buf, v_buf, message):
        with pytest.raises(ConfigurationError) as excinfo:
            PassingWindowEstimator(
                GEOMETRY, LIMITS, aggressive=True, a_buf=a_buf, v_buf=v_buf
            )
        assert str(excinfo.value) == message
        # The error the Interval oracle's per-call buffer check raises.
        with pytest.raises(ConfigurationError, match=message.split(",")[0]):
            shield_oracle.aggressive_window(
                _estimate(0.0, 50.0, -10.0), GEOMETRY, LIMITS, a_buf, v_buf
            )

    @pytest.mark.parametrize("a_buf, v_buf", [(0.0, 0.0), (0.5, 1.0), (2.0, 5.0)])
    def test_aggressive_accepts_valid_buffers(self, a_buf, v_buf):
        estimator = PassingWindowEstimator(
            GEOMETRY, LIMITS, aggressive=True, a_buf=a_buf, v_buf=v_buf
        )
        est = _estimate(0.0, 50.0, -10.0)
        assert estimator.window(est) == Interval(*_aggressive(est, a_buf, v_buf))

    def test_conservative_ignores_buffers(self):
        estimator = PassingWindowEstimator(GEOMETRY, LIMITS, a_buf=-0.5, v_buf=float("nan"))
        est = _estimate(0.0, 50.0, -10.0)
        assert estimator.window(est) == Interval(*_conservative(est))
