"""Tests for the Kalman filter (Section III-B equations).

The printed matrices are those of the matrix reference filter in
``tests/kalman_oracle.py``; the filter steps are the scalar kernels
``extrapolate_floats`` and ``update_floats``.
"""

import math

import numpy as np
import pytest

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits, VehicleModel
from repro.errors import FilterError
from repro.filtering.kalman import KalmanFilter, KalmanState
from repro.sensing.noise import NoiseBounds
from repro.utils.intervals import Interval
from repro.utils.rng import RngStream
from tests import kalman_oracle
from tests.kalman_oracle import covariance
from tests.test_sensing import UniformNoise

DT = 0.1
BOUNDS = NoiseBounds.uniform_all(1.0)


def _filter() -> KalmanFilter:
    return KalmanFilter(BOUNDS)


def _matrices() -> kalman_oracle.KalmanFilter:
    """The matrix filter, for the printed ``F``, ``G``, ``Q`` and ``R``."""
    return kalman_oracle.KalmanFilter(DT, BOUNDS)


def _predict(kf: KalmanFilter, state, accel: float) -> KalmanState:
    """One filter step over ``DT``, the fields under their names."""
    return KalmanState(*kf.extrapolate_floats(state, accel, DT))


def _update(kf: KalmanFilter, state, z_p: float, z_v: float) -> KalmanState:
    """One measurement update, the fields under their names."""
    return KalmanState(*kf.update_floats(state, z_p, z_v))


class TestPaperMatrices:
    """The printed F, G, Q, R of Section III-B."""

    def test_f(self):
        assert np.allclose(_matrices().f_matrix, [[1.0, DT], [0.0, 1.0]])

    def test_g(self):
        assert np.allclose(_matrices().g_matrix, [[0.5 * DT * DT], [DT]])

    def test_q_scaled_by_uniform_accel_variance(self):
        expected = (
            np.array(
                [
                    [0.25 * DT**4, 0.5 * DT**3],
                    [0.5 * DT**3, DT**2],
                ]
            )
            * (1.0 / 3.0)
        )
        assert np.allclose(_matrices().q_matrix, expected)

    def test_r_diagonal_of_uniform_variances(self):
        assert np.allclose(_matrices().r_matrix, np.diag([1 / 3, 1 / 3]))

    def test_matrix_accessors_return_copies(self):
        kf = _matrices()
        kf.f_matrix[0, 0] = 99.0
        assert kf.f_matrix[0, 0] == 1.0


class TestKalmanState:
    def test_accessors(self):
        s = KalmanState(
            time=1.0, position=2.0, velocity=3.0, p00=4.0, p01=0.0, p11=9.0
        )
        assert s.position == 2.0
        assert s.velocity == 3.0
        assert math.sqrt(s.p00) == 2.0
        assert math.sqrt(s.p11) == 3.0

    def test_bands(self):
        # The information filter joins ``mean ± n_sigma * std``.
        s = KalmanState(
            time=0.0, position=1.0, velocity=-3.0, p00=4.0, p01=0.0, p11=0.25
        )
        n_sigma = 2.0
        band = Interval.around(s.position, n_sigma * math.sqrt(s.p00))
        assert band == Interval(-3.0, 5.0)
        band = Interval.around(s.velocity, n_sigma * math.sqrt(s.p11))
        assert band == Interval(-4.0, -2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(FilterError):
            KalmanState(
                time=0.0,
                position=np.nan,
                velocity=0.0,
                p00=1.0,
                p01=0.0,
                p11=1.0,
            )

    def test_arrays_copied(self):
        x = np.array([[1.0], [2.0]])
        s = KalmanState(
            time=0.0, position=x[0, 0], velocity=x[1, 0], p00=1.0, p01=0.0, p11=1.0
        )
        x[0, 0] = 50.0
        assert s.position == 1.0


class TestPredictUpdate:
    def test_predict_mean(self):
        kf = _filter()
        s = KalmanState(
            time=0.0, position=0.0, velocity=10.0, p00=1.0, p01=0.0, p11=1.0
        )
        pred = _predict(kf, s, accel=2.0)
        assert pred.time == pytest.approx(DT)
        assert pred.position == pytest.approx(10.0 * DT + 0.5 * 2.0 * DT * DT)
        assert pred.velocity == pytest.approx(10.0 + 2.0 * DT)

    def test_predict_grows_covariance(self):
        kf = _filter()
        s = KalmanState(
            time=0.0, position=0.0, velocity=0.0, p00=1.0, p01=0.0, p11=1.0
        )
        pred = _predict(kf, s, 0.0)
        assert np.trace(covariance(pred)) > np.trace(covariance(s))

    def test_update_moves_toward_measurement(self):
        kf = _filter()
        pred = KalmanState(
            time=0.0, position=0.0, velocity=0.0, p00=100.0, p01=0.0, p11=100.0
        )
        post = _update(kf, pred, z_p=5.0, z_v=-2.0)
        # Huge prior variance: the posterior should sit near the
        # measurement.
        assert post.position == pytest.approx(5.0, abs=0.05)
        assert post.velocity == pytest.approx(-2.0, abs=0.05)

    def test_update_shrinks_covariance(self):
        kf = _filter()
        pred = KalmanState(
            time=0.0, position=0.0, velocity=0.0, p00=1.0, p01=0.0, p11=1.0
        )
        post = _update(kf, pred, 0.5, 0.5)
        assert np.trace(covariance(post)) < np.trace(covariance(pred))

    def test_update_covariance_symmetric_psd(self):
        kf = _filter()
        state = KalmanState(
            time=0.0, position=0.0, velocity=0.0, p00=1.0, p01=0.0, p11=1.0
        )
        for i in range(50):
            state = _predict(kf, state, 0.1)
            state = _update(kf, state, 0.1 * i, 0.05 * i)
        p = covariance(state)
        assert np.allclose(p, p.T)
        assert np.all(np.linalg.eigvalsh(p) >= -1e-12)

    def test_noiseless_update_pins_to_measurement(self):
        # R = 0 means exact measurements: the posterior is the
        # measurement with zero covariance (no singular inversion).
        kf = KalmanFilter(NoiseBounds.noiseless())
        pred = KalmanState(
            time=0.0, position=0.0, velocity=0.0, p00=0.0, p01=0.0, p11=0.0
        )
        post = _update(kf, pred, 1.0, -2.0)
        assert post.position == 1.0
        assert post.velocity == -2.0
        assert np.allclose(covariance(post), 0.0)


class TestExtrapolate:
    def test_zero_horizon_identity(self):
        kf = _filter()
        s = KalmanState(
            time=1.0, position=1.0, velocity=2.0, p00=1.0, p01=0.0, p11=1.0
        )
        assert kf.extrapolate_floats(s, 0.0, 0.0) is s

    def test_matches_predict_at_native_step(self):
        kf = _filter()
        s = KalmanState(
            time=0.0, position=1.0, velocity=2.0, p00=1.0, p01=0.0, p11=1.0
        )
        a = 1.5
        # The matrix filter's predict: F x + G a and F P F' + Q at DT.
        prior = kalman_oracle.KalmanFilter.initial_state(
            s.time, s.position, s.velocity, s.p00, s.p11
        )
        via_predict = _matrices().predict(prior, a)
        via_extrapolate = _predict(kf, s, a)
        assert np.allclose(
            via_predict.x_hat, [[via_extrapolate.position], [via_extrapolate.velocity]]
        )
        assert np.allclose(via_predict.covariance, covariance(via_extrapolate))

    def test_negative_horizon_rejected(self):
        kf = _filter()
        s = KalmanState(
            time=0.0, position=0.0, velocity=0.0, p00=1.0, p01=0.0, p11=1.0
        )
        with pytest.raises(FilterError):
            kf.extrapolate_floats(s, 0.0, -0.1)


class TestConvergence:
    def test_tracks_constant_velocity_target(self):
        """RMSE after filtering must beat the raw measurement RMSE."""
        kf = _filter()
        rng = RngStream(42)
        noise = UniformNoise(BOUNDS, rng)
        model = VehicleModel(
            VehicleLimits(v_min=-50.0, v_max=50.0, a_min=-5.0, a_max=5.0)
        )
        true = VehicleState(position=0.0, velocity=8.0)
        state = KalmanFilter.initial_state(0.0, 0.0, 8.0, 1.0, 1.0)
        raw_err = []
        filt_err = []
        for i in range(1, 200):
            true = model.step(true, 0.0, DT)
            z_p = noise.perturb_position(true.position)
            z_v = noise.perturb_velocity(true.velocity)
            pred = _predict(kf, state, 0.0)
            state = _update(kf, pred, z_p, z_v)
            raw_err.append((z_p - true.position) ** 2)
            filt_err.append((state.position - true.position) ** 2)
        assert np.mean(filt_err) < 0.25 * np.mean(raw_err)

    def test_exact_state(self):
        kf = _filter()
        s = kf.exact_state(2.0, 10.0, -3.0)
        assert s.position == 10.0
        assert s.velocity == -3.0
        assert np.allclose(covariance(s), 0.0)
