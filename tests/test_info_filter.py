"""Tests for the two estimate providers.

The load-bearing property: both providers produce bands that contain the
observed vehicle's true state at every control step, under message
delay/drop and sensor noise — the soundness premise of the safety
theorem.  The information filter must additionally be tighter than the
raw estimator.
"""

import math

import pytest

from repro.comm.channel import Channel
from repro.comm.disturbance import messages_delayed, messages_lost
from repro.comm.message import Message
from repro.dynamics.profiles import RandomSequenceProfile
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits, VehicleModel
from repro.errors import FilterError, IntervalError
from repro.filtering.info_filter import InformationFilter, RawEstimator
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import Sensor, SensorReading
from repro.utils.rng import RngStream

LIMITS = VehicleLimits(v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0)
BOUNDS = NoiseBounds.uniform_all(1.5)
DT_C = 0.05
DT_S = 0.1


def _drive(estimator, seed, n_steps=120, drop_p=0.3, delay=0.25):
    """Closed-loop feed: returns (errors, widths, truth trace)."""
    rng = RngStream(seed)
    profile_rng, sensor_rng, channel_rng, init_rng = rng.spawn(4)
    state = VehicleState(
        position=55.0, velocity=float(init_rng.uniform(-14.0, -9.0))
    )
    model = VehicleModel(LIMITS)
    profile = RandomSequenceProfile(profile_rng, -2.0, 2.0)
    sensor = Sensor(target=1, period=DT_S, bounds=BOUNDS, rng=sensor_rng)
    channel = Channel(
        period=DT_S,
        rng=channel_rng,
        faults=messages_delayed(delay, drop_p).as_fault_model(),
    )
    sensor_every = int(round(DT_S / DT_C))
    containment = []
    widths = []
    for step in range(n_steps):
        t = step * DT_C
        accel = profile(step, t, state)
        stamped = state.with_acceleration(accel)
        if step % sensor_every == 0:
            channel.send(1, t, stamped)
            estimator.on_sensor_reading(sensor.measure(t, stamped))
        for message in channel.receive(t):
            estimator.on_message(message, t)
        est = estimator.estimate(t)
        containment.append(
            est.position.expand(1e-9).contains(stamped.position)
            and est.velocity.expand(1e-9).contains(stamped.velocity)
        )
        widths.append(est.position.width)
        state = model.step(state, accel, DT_C)
    return containment, widths


def _make_filtered():
    return InformationFilter(
        limits=LIMITS, sensor_bounds=BOUNDS, sensing_period=DT_S
    )


def _make_raw():
    return RawEstimator(limits=LIMITS, sensor_bounds=BOUNDS)


class TestSoundness:
    @pytest.mark.parametrize("seed", range(6))
    def test_raw_bands_contain_truth(self, seed):
        containment, _ = _drive(_make_raw(), seed)
        assert all(containment)

    @pytest.mark.parametrize("seed", range(6))
    def test_filtered_bands_contain_truth_at_confidence(self, seed):
        """The fused band is confidence-based, not guaranteed.

        The information filter intersects the guaranteed reachability
        band with the Kalman ``±3 sigma`` band (the paper's join), so
        the truth can occasionally fall outside — especially between
        sensor samples, where extrapolation uses a stale acceleration
        while the i.i.d. workload re-draws it every control step.  The
        design property is *high-rate* containment, with the guaranteed
        band (tested above via the raw estimator) as the sound envelope.
        """
        containment, _ = _drive(_make_filtered(), seed)
        assert sum(containment) / len(containment) >= 0.90

    def test_filtered_tighter_on_average(self):
        _, raw_w = _drive(_make_raw(), 42)
        _, filt_w = _drive(_make_filtered(), 42)
        assert sum(filt_w) <= sum(raw_w) + 1e-9


class TestNoInformation:
    def test_estimate_before_any_input_raises(self):
        with pytest.raises(FilterError):
            _make_filtered().estimate(0.0)
        with pytest.raises(FilterError):
            _make_raw().estimate(0.0)


class TestMessageHandling:
    def _msg(self, stamp, p=50.0, v=-12.0, a=0.5):
        return Message(
            sender=1,
            stamp=stamp,
            state=VehicleState(position=p, velocity=v, acceleration=a),
        )

    def test_message_only_estimation(self):
        est_f = _make_filtered()
        est_f.on_message(self._msg(0.0), 0.0)
        out = est_f.estimate(0.5)
        assert out.position.contains(50.0 - 12.0 * 0.5)
        assert out.message_age == pytest.approx(0.5)

    def test_raw_keeps_newest_stamp(self):
        raw = _make_raw()
        raw.on_message(self._msg(1.0, p=40.0), 1.3)
        raw.on_message(self._msg(0.5, p=45.0), 1.35)  # late, stale
        assert raw.latest_message.stamp == 1.0

    def test_filtered_keeps_newest_stamp(self):
        filt = _make_filtered()
        filt.on_message(self._msg(1.0, p=40.0), 1.3)
        filt.on_message(self._msg(0.5, p=45.0), 1.35)
        assert filt.latest_message.stamp == 1.0

    def test_nominal_acceleration_from_message(self):
        raw = _make_raw()
        raw.on_message(self._msg(0.0, a=0.75), 0.0)
        assert raw.estimate(0.1).nominal.acceleration == 0.75

    def test_band_widens_with_message_age(self):
        filt = _make_raw()
        filt.on_message(self._msg(0.0), 0.0)
        early = filt.estimate(0.1).position.width
        late = filt.estimate(1.0).position.width
        assert late > early


class TestSensorOnly:
    """The messages-lost setting: sensing is the sole source."""

    def test_sensor_only_estimation_sound(self):
        for estimator in (_make_raw(), _make_filtered()):
            containment, _ = _drive(estimator, 3, drop_p=1.0)
            assert all(containment)

    def test_velocity_band_clipped_to_physical(self):
        raw = _make_raw()
        # Measurement pushed past the physical max speed.
        from repro.sensing.sensor import SensorReading

        raw.on_sensor_reading(
            SensorReading(
                target=1,
                time=0.0,
                position=50.0,
                velocity=-21.0,  # beyond v_min=-20
                acceleration=0.0,
            )
        )
        est = raw.estimate(0.0)
        assert est.velocity.lo >= LIMITS.v_min - 1e-9

    def test_fully_out_of_range_velocity_measurement(self):
        bounds = NoiseBounds(delta_p=1.0, delta_v=0.1, delta_a=0.1)
        raw = RawEstimator(limits=LIMITS, sensor_bounds=bounds)
        from repro.sensing.sensor import SensorReading

        raw.on_sensor_reading(
            SensorReading(
                target=1,
                time=0.0,
                position=50.0,
                velocity=-25.0,  # band [-25.1, -24.9] outside physical
                acceleration=0.0,
            )
        )
        est = raw.estimate(0.0)
        assert est.velocity.contains(LIMITS.v_min)


class TestNanReading:
    """A NaN reading raises; it is never silently dropped from the band.

    Python's ``max``/``min`` return a NaN operand or drop it depending on
    argument order, so a float-level band join could otherwise return the
    message band as if the reading were not there.
    """

    @pytest.mark.parametrize("field", ["position", "velocity"])
    @pytest.mark.parametrize("with_message", [False, True])
    def test_raw_estimator_raises(self, field, with_message):
        raw = _make_raw()
        if with_message:
            raw.on_message(
                Message(
                    sender=1,
                    stamp=0.0,
                    state=VehicleState(position=50.0, velocity=-12.0),
                ),
                0.0,
            )
        values = {"position": 50.0, "velocity": -12.0}
        values[field] = math.nan
        raw.on_sensor_reading(
            SensorReading(target=1, time=0.0, acceleration=0.0, **values)
        )
        with pytest.raises(IntervalError):
            raw.estimate(0.1)
