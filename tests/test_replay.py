"""Tests for the replaying Kalman filter (message replay of Sec. III-B)."""

import pytest

from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits, VehicleModel
from repro.errors import FilterError, ReplayError
from repro.filtering.kalman import KalmanFilter, KalmanState
from repro.filtering.replay import ReplayKalmanFilter
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from repro.utils.rng import RngStream
from tests.test_sensing import UniformNoise

DT = 0.1
BOUNDS = NoiseBounds.uniform_all(1.0)
LIMITS = VehicleLimits(v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0)


def _rkf() -> ReplayKalmanFilter:
    return ReplayKalmanFilter(KalmanFilter(BOUNDS))


def _reading(t, p, v, a=0.0) -> SensorReading:
    return SensorReading(target=1, time=t, position=p, velocity=v, acceleration=a)


class TestSensorPath:
    def test_first_reading_initialises(self):
        rkf = _rkf()
        assert not rkf.is_initialized
        post = rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0))
        assert rkf.is_initialized
        assert post.position == 50.0
        assert post.velocity == -12.0

    def test_initial_covariance_is_measurement_covariance(self):
        rkf = _rkf()
        post = rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0))
        assert post.p00 == pytest.approx(1.0 / 3.0)

    def test_subsequent_readings_advance_time(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0))
        post = rkf.on_sensor_reading(_reading(0.1, 48.8, -12.0))
        assert post.time == pytest.approx(0.1)

    def test_time_regression_rejected(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.5, 50.0, -12.0))
        with pytest.raises(FilterError):
            rkf.on_sensor_reading(_reading(0.4, 50.0, -12.0))

    def test_current_accel_tracks_reading(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0, a=1.5))
        assert rkf.current_accel == 1.5

    @pytest.mark.parametrize("field", ["time", "position", "velocity", "acceleration"])
    def test_non_finite_reading_rejected_before_any_state_change(self, field):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0, a=1.5))
        posterior = rkf.posterior
        values = {"t": 0.1, "p": 48.8, "v": -12.0, "a": 0.5}
        values[field[0]] = float("nan")
        with pytest.raises(FilterError):
            rkf.on_sensor_reading(_reading(**values))
        assert rkf.current_accel == 1.5
        assert rkf.posterior is posterior
        assert rkf._reading_times == [0.0]

    def test_gate_sees_the_prediction_the_update_uses(self):
        rkf = _rkf()
        first = rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0, a=1.0))
        seen = []
        reading = _reading(0.1, 48.8, -12.0)
        rkf.on_sensor_reading(reading, gate=lambda r, p: seen.append((r, p)))
        predicted = rkf.kalman.extrapolate_floats(first, 1.0, 0.1)
        # The gate sees the prediction's fields, in KalmanState order.
        assert seen == [(reading, tuple(predicted))]
        assert KalmanState(*seen[0][1]).time == pytest.approx(0.1)
        assert rkf.posterior == rkf.kalman.update_floats(predicted, 48.8, -12.0)


class TestEstimateAt:
    def test_uninitialised_raises(self):
        with pytest.raises(FilterError):
            _rkf().estimate_at(0.0)

    def test_at_posterior_time(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0))
        est = rkf.estimate_at(0.0)
        assert est.position == pytest.approx(50.0)

    def test_between_samples_extrapolates(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0, a=0.0))
        est = rkf.estimate_at(0.05)
        assert est.position == pytest.approx(50.0 - 12.0 * 0.05, abs=1e-9)

    def test_past_query_rejected(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.5, 50.0, -12.0))
        with pytest.raises(FilterError):
            rkf.estimate_at(0.2)


class TestMessageReplay:
    def _drive(self, rkf, seed=7, n=30):
        """Feed noisy readings of a simulated vehicle; return its states."""
        rng = RngStream(seed)
        noise = UniformNoise(BOUNDS, rng)
        model = VehicleModel(LIMITS)
        state = VehicleState(position=55.0, velocity=-12.0)
        truth = {0.0: state}
        for i in range(n):
            t = i * DT
            rkf.on_sensor_reading(
                _reading(
                    t,
                    noise.perturb_position(state.position),
                    noise.perturb_velocity(state.velocity),
                    noise.perturb_acceleration(0.5),
                )
            )
            state = model.step(state, 0.5, DT)
            truth[round((i + 1) * DT, 10)] = state
        return truth

    def test_replay_improves_posterior(self):
        rkf = _rkf()
        truth = self._drive(rkf)
        now = 29 * DT
        before = rkf.estimate_at(now)
        stamp = 25 * DT
        exact = truth[round(stamp, 10)]
        msg = Message(
            sender=1,
            stamp=stamp,
            state=exact.with_acceleration(0.5),
        )
        rkf.on_message(msg, now)
        after = rkf.estimate_at(now)
        true_now = truth[round(now, 10)]
        err_before = abs(before.position - true_now.position)
        err_after = abs(after.position - true_now.position)
        assert err_after <= err_before + 1e-9
        assert rkf.replay_count == 1

    def test_replay_with_current_stamp_pins_estimate(self):
        rkf = _rkf()
        truth = self._drive(rkf, n=10)
        now = 9 * DT
        exact = truth[round(now, 10)]
        rkf.on_message(
            Message(sender=1, stamp=now, state=exact.with_acceleration(0.5)),
            now,
        )
        est = rkf.estimate_at(now)
        assert est.position == pytest.approx(exact.position, abs=1e-9)
        assert est.velocity == pytest.approx(exact.velocity, abs=1e-9)

    def test_older_message_ignored_after_newer(self):
        rkf = _rkf()
        truth = self._drive(rkf, n=20)
        now = 19 * DT
        newer = Message(
            sender=1,
            stamp=15 * DT,
            state=truth[round(15 * DT, 10)].with_acceleration(0.5),
        )
        older = Message(
            sender=1,
            stamp=10 * DT,
            state=truth[round(10 * DT, 10)].with_acceleration(0.5),
        )
        assert rkf.on_message(newer, now) is not None
        assert rkf.on_message(older, now) is None
        assert rkf.replay_count == 1

    def test_future_message_rejected(self):
        rkf = _rkf()
        self._drive(rkf, n=5)
        future = Message(
            sender=1,
            stamp=100.0,
            state=VehicleState(position=0.0, velocity=0.0),
        )
        with pytest.raises(ReplayError):
            rkf.on_message(future, 0.5)

    def test_message_beyond_horizon_ignored(self):
        rkf = ReplayKalmanFilter(KalmanFilter(BOUNDS), history_horizon=1.0)
        self._drive(rkf, n=30)  # posterior at 2.9 s
        stale = Message(
            sender=1,
            stamp=0.0,
            state=VehicleState(position=55.0, velocity=-12.0),
        )
        assert rkf.on_message(stale, 2.9) is None

    def test_invalid_horizon_rejected(self):
        with pytest.raises(FilterError):
            ReplayKalmanFilter(KalmanFilter(BOUNDS), history_horizon=0.0)

    def test_replay_within_a_short_horizon_renews_the_posterior(self):
        rkf = ReplayKalmanFilter(KalmanFilter(BOUNDS), history_horizon=0.5)
        truth = self._drive(rkf, n=20)
        before = rkf.posterior
        stamp = 16 * DT
        after = rkf.on_message(
            Message(
                sender=1,
                stamp=stamp,
                state=truth[round(stamp, 10)].with_acceleration(0.5),
            ),
            19 * DT,
        )
        assert rkf.last_replay_depth == 3  # the readings at 17, 18, 19 dt
        assert after is rkf.posterior and after != before
        assert after.time == pytest.approx(19 * DT)

    def test_pruning_bounds_memory(self):
        rkf = ReplayKalmanFilter(KalmanFilter(BOUNDS), history_horizon=0.5)
        self._drive(rkf, n=100)
        assert len(rkf._reading_times) <= 7  # 0.5 s of 0.1 s readings + slack
