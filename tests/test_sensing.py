"""Tests for noise bounds and the periodic sensor.

:class:`UniformNoise` is the reference draw the sensor must reproduce:
each channel's error is ``RngStream.uniform(-delta, delta)``, drawn in
the order position, velocity, acceleration, and nothing for a zero
bound.  ``tests/test_kalman.py`` and ``tests/test_replay.py`` perturb
their simulated truths with it too.
"""

import numpy as np
import pytest

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError
from repro.filtering.info_filter import RawEstimator
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import Sensor, SensorReading
from repro.utils.rng import RngStream


class UniformNoise:
    """Draws uniform measurement errors within :class:`NoiseBounds`."""

    def __init__(self, bounds: NoiseBounds, rng: RngStream) -> None:
        self._bounds = bounds
        self._rng = rng

    def perturb_position(self, true_value: float) -> float:
        """True position plus a uniform error in ``±delta_p``."""
        if self._bounds.delta_p == 0.0:
            return true_value
        return true_value + float(
            self._rng.uniform(-self._bounds.delta_p, self._bounds.delta_p)
        )

    def perturb_velocity(self, true_value: float) -> float:
        """True velocity plus a uniform error in ``±delta_v``."""
        if self._bounds.delta_v == 0.0:
            return true_value
        return true_value + float(
            self._rng.uniform(-self._bounds.delta_v, self._bounds.delta_v)
        )

    def perturb_acceleration(self, true_value: float) -> float:
        """True acceleration plus a uniform error in ``±delta_a``."""
        if self._bounds.delta_a == 0.0:
            return true_value
        return true_value + float(
            self._rng.uniform(-self._bounds.delta_a, self._bounds.delta_a)
        )


TRUE = VehicleState(position=40.0, velocity=-11.0, acceleration=1.0)
#: ``TRUE`` as the floats ``Sensor.measure`` takes.
TRUE_FIELDS = (TRUE.position, TRUE.velocity, TRUE.acceleration)


class TestNoiseBounds:
    def test_uniform_all(self):
        b = NoiseBounds.uniform_all(1.4)
        assert b.delta_p == b.delta_v == b.delta_a == 1.4

    def test_noiseless(self):
        b = NoiseBounds.noiseless()
        assert b.delta_p == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseBounds(delta_p=-1.0, delta_v=0.0, delta_a=0.0)

    def test_variances_are_uniform_variances(self):
        # Var of U(-d, d) is d^2 / 3 — the paper's R and Q entries.
        b = NoiseBounds(delta_p=3.0, delta_v=1.5, delta_a=0.9)
        assert b.position_variance == pytest.approx(3.0)
        assert b.velocity_variance == pytest.approx(0.75)
        assert b.acceleration_variance == pytest.approx(0.27)

    def test_bands_contain_truth(self):
        # The raw estimator's band around a fresh reading is ``±delta``.
        b = NoiseBounds.uniform_all(2.0)
        raw = RawEstimator(VehicleLimits(-20.0, 0.0, -3.0, 3.0), b)
        raw.on_sensor_reading(SensorReading(1, 0.0, 10.0, -5.0, 0.0))
        band = raw.estimate(0.0).position
        assert band.contains(11.9)
        assert not band.contains(12.1)


class TestUniformNoise:
    def test_within_bounds(self):
        noise = UniformNoise(NoiseBounds.uniform_all(0.5), RngStream(1))
        for _ in range(200):
            assert abs(noise.perturb_position(10.0) - 10.0) <= 0.5
            assert abs(noise.perturb_velocity(-3.0) + 3.0) <= 0.5
            assert abs(noise.perturb_acceleration(0.0)) <= 0.5

    def test_noiseless_passthrough(self):
        noise = UniformNoise(NoiseBounds.noiseless(), RngStream(2))
        assert noise.perturb_position(7.0) == 7.0

    def test_roughly_uniform(self):
        noise = UniformNoise(NoiseBounds.uniform_all(1.0), RngStream(3))
        samples = np.array(
            [noise.perturb_position(0.0) for _ in range(4000)]
        )
        assert abs(samples.mean()) < 0.05
        assert abs(samples.std() - np.sqrt(1.0 / 3.0)) < 0.03


class TestSensor:
    def _sensor(self, delta=1.0, seed=5):
        return Sensor(
            target=1,
            period=0.1,
            bounds=NoiseBounds.uniform_all(delta),
            rng=RngStream(seed),
        )

    def test_reading_fields(self):
        reading = self._sensor().measure(0.2, *TRUE_FIELDS)
        assert reading.target == 1
        assert reading.time == 0.2

    def test_reading_within_bounds(self):
        sensor = self._sensor(delta=0.5)
        for i in range(100):
            r = sensor.measure(i * 0.1, *TRUE_FIELDS)
            assert abs(r.position - TRUE.position) <= 0.5
            assert abs(r.velocity - TRUE.velocity) <= 0.5
            assert abs(r.acceleration - TRUE.acceleration) <= 0.5

    @pytest.mark.parametrize(
        "bounds",
        [
            NoiseBounds.uniform_all(1.0),
            NoiseBounds(delta_p=2.5, delta_v=0.0, delta_a=0.3),
            NoiseBounds(delta_p=0.0, delta_v=0.7, delta_a=0.0),
            NoiseBounds.noiseless(),
        ],
        ids=["all", "no-velocity", "velocity-only", "noiseless"],
    )
    def test_readings_are_uniform_noise_draws(self, bounds):
        # Sensor.measure draws what UniformNoise's perturb_* draw, bit
        # for bit and in the same order, and keeps no reading: the
        # returned reading is all there is.
        sensor = Sensor(target=1, period=0.1, bounds=bounds, rng=RngStream(9))
        noise = UniformNoise(bounds, RngStream(9))
        for i in range(200):
            truth = (40.0 - i, -11.0 + 0.01 * i, 1.0 - 0.02 * i)
            reading = sensor.measure(i * 0.1, *truth)
            assert reading == (
                1,
                i * 0.1,
                noise.perturb_position(truth[0]),
                noise.perturb_velocity(truth[1]),
                noise.perturb_acceleration(truth[2]),
            )
        assert not hasattr(sensor, "history")
        assert not hasattr(sensor, "latest")

    def test_overflowing_noise_range_rejected(self):
        with pytest.raises(ConfigurationError, match="delta_v"):
            Sensor(
                target=1,
                period=0.1,
                bounds=NoiseBounds(delta_p=1.0, delta_v=1e308, delta_a=1.0),
                rng=RngStream(0),
            )

    def test_schedule(self):
        sensor = self._sensor()
        assert sensor.is_sample_time(0.0)
        assert sensor.is_sample_time(0.4)
        assert not sensor.is_sample_time(0.15)

    def test_reproducible(self):
        a = self._sensor(seed=8).measure(0.0, *TRUE_FIELDS)
        b = self._sensor(seed=8).measure(0.0, *TRUE_FIELDS)
        assert a.position == b.position
        assert a.velocity == b.velocity

    def test_invalid_period_rejected(self):
        with pytest.raises(ConfigurationError):
            Sensor(
                target=1,
                period=0.0,
                bounds=NoiseBounds.noiseless(),
                rng=RngStream(0),
            )
