"""Numerical hardening of the estimate chain.

Two layers of defence added for long campaigns:

* the Kalman update projects its Joseph-form covariance onto the
  symmetric PSD cone, so thousands of replayed updates cannot
  accumulate an indefinite covariance (negative variance -> NaN bands);
* the information filter's divergence watchdog quarantines the Kalman
  band when consecutive innovations contradict the filter's own
  uncertainty, falling back to the sound reachability-only band instead
  of steering the nominal estimate with a diverged filter.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import FilterError
from repro.filtering.info_filter import InformationFilter, WatchdogStats
from repro.filtering.kalman import KalmanFilter, KalmanState
from repro.filtering.replay import ReplayKalmanFilter
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from tests import kalman_oracle
from tests.kalman_oracle import covariance, symmetrize_psd

LIMITS = VehicleLimits(v_min=0.0, v_max=16.0, a_min=-6.0, a_max=4.0)
DT = 0.1


def _reading(time, position, velocity, acceleration=0.0):
    return SensorReading(
        target=1,
        time=time,
        position=position,
        velocity=velocity,
        acceleration=acceleration,
    )


class TestSymmetrizePsd:
    def test_symmetric_psd_matrix_passes_through(self):
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = symmetrize_psd(p)
        assert np.array_equal(out, p)

    def test_asymmetry_is_averaged_out(self):
        p = np.array([[2.0, 0.5 + 1e-13], [0.5 - 1e-13, 1.0]])
        out = symmetrize_psd(p)
        assert out[0, 1] == out[1, 0]
        assert out[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_negative_variance_clamped_to_floor(self):
        p = np.array([[-1e-9, 0.0], [0.0, 1.0]])
        out = symmetrize_psd(p)
        assert out[0, 0] == 0.0
        # With a zero variance the Cauchy-Schwarz bound pins the
        # covariance term too.
        assert out[0, 1] == 0.0

    def test_covariance_clamped_to_cauchy_schwarz(self):
        p = np.array([[1.0, 2.0], [2.0, 1.0]])  # |p01| > sqrt(p00*p11)
        out = symmetrize_psd(p)
        assert out[0, 1] == pytest.approx(1.0)
        assert np.all(np.linalg.eigvalsh(out) >= -1e-15)

    def test_explicit_floor_applies_to_both_variances(self):
        p = np.zeros((2, 2))
        out = symmetrize_psd(p, floor=1e-6)
        assert out[0, 0] == pytest.approx(1e-6)
        assert out[1, 1] == pytest.approx(1e-6)


class TestJosephHardening:
    """The update's covariance stays symmetric PSD under abuse."""

    def test_extreme_conditioning_keeps_exact_symmetry(self):
        # delta_p huge, delta_v tiny: R condition number ~1e12; prior
        # deliberately mismatched the other way round.
        kf = KalmanFilter(NoiseBounds(delta_p=1e3, delta_v=1e-3, delta_a=0.5))
        prior = KalmanState(
            time=0.0, position=100.0, velocity=10.0, p00=1e-8, p01=1e-5, p11=1e4
        )
        posterior = kf.update_floats(prior, 101.0, 9.0)
        p = covariance(posterior)
        assert p[0, 1] == p[1, 0]  # exactly, not approximately
        assert np.all(np.diag(p) >= 0.0)
        assert np.all(np.linalg.eigvalsh(p) >= -1e-15)

    def test_hardened_update_matches_joseph_form_within_1e12(self):
        bounds = NoiseBounds(delta_p=1e3, delta_v=1e-3, delta_a=0.5)
        kf = KalmanFilter(bounds)
        r_matrix = kalman_oracle.KalmanFilter(DT, bounds).r_matrix
        prior = KalmanState(
            time=0.0, position=100.0, velocity=10.0, p00=1e-8, p01=1e-5, p11=1e4
        )
        p_prior = covariance(prior)
        gain = p_prior @ np.linalg.inv(p_prior + r_matrix)
        i_minus_k = np.eye(2) - gain
        joseph = i_minus_k @ p_prior @ i_minus_k.T + gain @ r_matrix @ gain.T
        hardened = covariance(kf.update_floats(prior, 101.0, 9.0))
        assert np.allclose(hardened, joseph, rtol=1e-12, atol=1e-15)

    def test_naive_form_asymmetry_is_eliminated(self):
        # A chain of updates with ill-conditioned R: the naive (I-K)P
        # covariance drifts off symmetry; the hardened update never does.
        bounds = NoiseBounds(delta_p=200.0, delta_v=1e-4, delta_a=1.0)
        kf = KalmanFilter(bounds)
        matrices = kalman_oracle.KalmanFilter(DT, bounds)
        f, q, r = matrices.f_matrix, matrices.q_matrix, matrices.r_matrix
        state = KalmanFilter.initial_state(0.0, 0.0, 10.0, 1e6, 1e-8)
        naive_p = covariance(state)
        max_naive_asym = 0.0
        for step in range(1, 200):
            predicted = kf.extrapolate_floats(state, 0.0, DT)
            # naive covariance propagated through the same chain
            naive_prior = f @ naive_p @ f.T + q
            naive_gain = naive_prior @ np.linalg.inv(naive_prior + r)
            naive_p = (np.eye(2) - naive_gain) @ naive_prior
            max_naive_asym = max(
                max_naive_asym, abs(naive_p[0, 1] - naive_p[1, 0])
            )
            state = kf.update_floats(predicted, 0.1 * step, 10.0)
            assert covariance(state)[0, 1] == covariance(state)[1, 0]
            assert np.all(np.diag(covariance(state)) >= 0.0)
        # The regression is meaningful only if the naive form actually
        # drifts on this workload.
        assert max_naive_asym > 0.0

    def test_long_replay_chain_keeps_finite_bands(self):
        kf = KalmanFilter(NoiseBounds(delta_p=1e-6, delta_v=1e-6, delta_a=1e-6))
        state = KalmanFilter.initial_state(0.0, 0.0, 5.0, 1e-12, 1e-12)
        for step in range(1, 2000):
            predicted = kf.extrapolate_floats(state, 0.0, DT)
            state = kf.update_floats(predicted, 0.5 * step * DT, 5.0)
        # The band half-widths' sigma, sqrt(max(var, 0)).
        _, _, _, p00, _, p11 = state
        position_std = math.sqrt(max(p00, 0.0))
        velocity_std = math.sqrt(max(p11, 0.0))
        assert np.isfinite(position_std)
        assert np.isfinite(velocity_std)
        assert position_std >= 0.0


class TestDivergenceWatchdog:
    def _filter(self, **kwargs):
        return InformationFilter(
            LIMITS,
            NoiseBounds.uniform_all(0.5),
            sensing_period=DT,
            **kwargs,
        )

    def _feed_consistent(self, info, start_step, n, position, velocity):
        for i in range(n):
            t = (start_step + i) * DT
            info.on_sensor_reading(
                _reading(t, position + velocity * t, velocity)
            )

    def test_nominal_readings_never_breach(self):
        info = self._filter()
        self._feed_consistent(info, 1, 50, 0.0, 8.0)
        assert info.watchdog.breaches == 0
        assert info.watchdog.trips == 0
        assert not info.watchdog.diverged

    def test_noiseless_setup_never_trips(self):
        info = InformationFilter(
            LIMITS, NoiseBounds.noiseless(), sensing_period=DT
        )
        for i in range(1, 40):
            t = i * DT
            info.on_sensor_reading(_reading(t, 8.0 * t, 8.0))
        assert info.watchdog.breaches == 0

    def test_single_outlier_does_not_trip(self):
        info = self._filter()
        self._feed_consistent(info, 1, 10, 0.0, 8.0)
        info.on_sensor_reading(_reading(11 * DT, 500.0, 8.0))
        assert info.watchdog.breaches == 1
        assert info.watchdog.consecutive == 1
        assert not info.watchdog.diverged
        # a consistent follow-up resets the run
        est = info.estimate(11 * DT)
        assert est.p_lo <= est.p_hi

    def test_consecutive_breaches_trip_and_fall_back(self):
        info = self._filter()
        self._feed_consistent(info, 1, 10, 0.0, 8.0)
        healthy = info.estimate(10 * DT)
        for i in range(3):
            t = (11 + i) * DT
            info.on_sensor_reading(_reading(t, 500.0 + 8.0 * t, 8.0))
        stats = info.watchdog
        assert stats.diverged
        assert stats.trips == 1
        assert stats.breaches == 3
        # graceful: estimate still works and returns a sound band
        fallback = info.estimate(13 * DT + DT / 2)
        assert fallback.p_lo <= fallback.p_hi
        # the fallback band is the reachability-only band, which is
        # wider than the healthy Kalman-fused band was
        assert fallback.p_hi - fallback.p_lo >= healthy.p_hi - healthy.p_lo

    def test_recovery_after_consistent_reading(self):
        info = self._filter()
        self._feed_consistent(info, 1, 10, 0.0, 8.0)
        for i in range(3):
            t = (11 + i) * DT
            info.on_sensor_reading(_reading(t, 500.0 + 8.0 * t, 8.0))
        assert info.watchdog.diverged
        # The filter kept folding readings in, so its posterior now
        # tracks the new regime; a reading consistent with it recovers.
        posterior = info.replay_filter.estimate_at(14 * DT)
        info.on_sensor_reading(
            _reading(14 * DT, posterior.position, posterior.velocity)
        )
        stats = info.watchdog
        assert not stats.diverged
        assert stats.recoveries == 1
        assert stats.consecutive == 0
        # and the Kalman band is trusted again
        est = info.estimate(14 * DT)
        assert est.p_lo <= est.p_hi

    def test_watchdog_can_be_disabled(self):
        info = self._filter(watchdog_sigma=None)
        self._feed_consistent(info, 1, 5, 0.0, 8.0)
        for i in range(10):
            t = (6 + i) * DT
            info.on_sensor_reading(_reading(t, 500.0 + 8.0 * t, 8.0))
        assert info.watchdog.breaches == 0
        assert not info.watchdog.diverged

    def test_invalid_watchdog_parameters_rejected(self):
        with pytest.raises(FilterError):
            self._filter(watchdog_sigma=0.0)
        with pytest.raises(FilterError):
            self._filter(watchdog_consecutive=0)

    @pytest.mark.parametrize("position", [float("nan"), float("inf")])
    def test_non_finite_reading_leaves_watchdog_untouched(self, position):
        info = self._filter()
        self._feed_consistent(info, 1, 10, 0.0, 8.0)
        info.on_sensor_reading(_reading(11 * DT, 500.0, 8.0))
        before = WatchdogStats(**vars(info.watchdog))
        assert before.consecutive == 1
        with pytest.raises(FilterError):
            info.on_sensor_reading(_reading(12 * DT, position, 8.0))
        assert info.watchdog == before

    def test_singular_update_keeps_the_gate_it_ran(self):
        # Exact position sensing and no acceleration noise: after a
        # message restarts the filter with zero covariance, P + R of the
        # next reading is singular.  The gate sees the prediction before
        # the update refuses it, so its counters move; the posterior,
        # the log and the latest reading do not.
        info = InformationFilter(
            LIMITS, NoiseBounds(delta_p=0.0, delta_v=1.0, delta_a=0.0),
            sensing_period=DT,
        )
        info.on_sensor_reading(_reading(0.0, 5.0, 10.0))
        info.on_message(
            Message(sender=1, stamp=0.05, state=VehicleState(5.5, 10.0, 0.0)), 0.05
        )
        replay = info.replay_filter
        posterior = replay.posterior
        expected = [
            # (position, breaches, consecutive, trips, diverged)
            (7.0, 1, 1, 0, False),
            (9.0, 2, 2, 0, False),
            (11.0, 3, 3, 1, True),
        ]
        for step, (position, breaches, consecutive, trips, diverged) in enumerate(
            expected, start=1
        ):
            with pytest.raises(FilterError, match="singular innovation covariance"):
                info.on_sensor_reading(_reading(step * DT, position, 10.0))
            assert info.watchdog == WatchdogStats(
                breaches=breaches,
                consecutive=consecutive,
                trips=trips,
                recoveries=0,
                diverged=diverged,
            )
            assert replay.posterior is posterior
        estimate = info.estimate(0.4)
        assert estimate.p_lo <= estimate.p_hi

    def test_stats_object_is_live(self):
        info = self._filter()
        stats = info.watchdog
        assert stats == WatchdogStats()
        self._feed_consistent(info, 1, 3, 0.0, 8.0)
        info.on_sensor_reading(_reading(4 * DT, 900.0, 8.0))
        assert stats.breaches == 1


class TestFilterKnobs:
    """NaN or non-positive widths, gates and horizons are rejected.

    ``x <= 0`` is False for NaN, so a check written that way let a NaN
    knob through: ``n_sigma=nan`` silently dropped the Kalman band from
    the fusion, ``watchdog_sigma=nan`` never breached and
    ``history_horizon=nan`` never pruned.
    """

    BOUNDS = NoiseBounds(1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "knob, message",
        [
            ("n_sigma", "n_sigma must be > 0"),
            ("watchdog_sigma", "watchdog_sigma must be > 0 or None"),
            ("history_horizon", "history_horizon must be > 0"),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0])
    def test_invalid_value_rejected(self, knob, message, value):
        with pytest.raises(FilterError, match=message):
            InformationFilter(LIMITS, self.BOUNDS, DT, **{knob: value})

    @pytest.mark.parametrize("value", [float("nan"), 0.0, -2.0])
    def test_replay_horizon_rejected(self, value):
        with pytest.raises(FilterError, match="history_horizon must be > 0"):
            ReplayKalmanFilter(KalmanFilter(self.BOUNDS), history_horizon=value)

    @pytest.mark.parametrize(
        "knob", ["n_sigma", "watchdog_sigma", "history_horizon"]
    )
    def test_valid_value_accepted(self, knob):
        info = InformationFilter(LIMITS, self.BOUNDS, DT, **{knob: 2.5})
        for i in range(5):
            info.on_sensor_reading(_reading(i * DT, 45.0 + 0.1 * i, 1.0))
        estimate = info.estimate(0.45)
        assert estimate.p_lo <= estimate.p <= estimate.p_hi

    def test_n_sigma_narrows_the_fused_band(self):
        """A finite width joins the Kalman band: narrower than 3 sigma at 1."""
        bands = {}
        for n_sigma in (1.0, 3.0):
            info = InformationFilter(LIMITS, self.BOUNDS, DT, n_sigma=n_sigma)
            for i in range(5):
                info.on_sensor_reading(_reading(i * DT, 45.0 + 0.1 * i, 1.0))
            estimate = info.estimate(0.45)
            bands[n_sigma] = estimate.p_hi - estimate.p_lo
        assert bands[1.0] < bands[3.0]
