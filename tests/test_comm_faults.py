"""Tests for composable channel fault models and the hardened channel."""

import math

import pytest

from repro.comm.channel import Channel
from repro.comm.disturbance import messages_delayed, messages_lost, no_disturbance
from repro.comm.faults import (
    ComposedFaults,
    Duplication,
    FaultModel,
    FaultProcess,
    FixedDelay,
    GaussianJitter,
    GilbertElliottLoss,
    IndependentLoss,
    NoFault,
    UniformJitter,
    compose,
)
from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError
from repro.filtering.kalman import KalmanFilter
from repro.filtering.replay import ReplayKalmanFilter
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from repro.utils.rng import RngStream

STATE = VehicleState(position=50.0, velocity=-12.0, acceleration=0.5)
DT = 0.1


def _drain(channel, until, dt=DT):
    """Receive at every control tick up to ``until``; returns messages."""
    out = []
    steps = int(round(until / dt))
    for k in range(steps + 1):
        out.extend(channel.receive(k * dt))
    return out


def _run_channel(faults, n_sends=200, seed=3):
    channel = Channel(period=DT, faults=faults, rng=RngStream(seed))
    for k in range(n_sends):
        channel.send(1, k * DT, STATE)
    drained = _drain(channel, n_sends * DT + 10.0)
    return channel, drained


class TestMessageHardening:
    def test_negative_stamp_rejected(self):
        with pytest.raises(ConfigurationError):
            Message(sender=1, stamp=-0.1, state=STATE)

    def test_infinite_stamp_rejected(self):
        with pytest.raises(ConfigurationError):
            Message(sender=1, stamp=math.inf, state=STATE)

    @pytest.mark.parametrize("field", ["position", "velocity", "acceleration"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_payload_rejected(self, field, bad):
        values = {"position": 50.0, "velocity": -12.0, "acceleration": 0.5}
        values[field] = bad
        with pytest.raises(ConfigurationError):
            Message(sender=1, stamp=0.0, state=VehicleState(**values))


class TestModelValidation:
    def test_loss_probability_range(self):
        with pytest.raises(ConfigurationError):
            IndependentLoss(1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedDelay(-0.1)

    def test_jitter_window_ordering(self):
        with pytest.raises(ConfigurationError):
            UniformJitter(0.3, 0.1)

    def test_gaussian_nan_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianJitter(mean=0.1, std=0.05, high=math.nan)

    def test_gilbert_elliott_probabilities(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(p_enter_burst=2.0, p_exit_burst=0.5)

    def test_compose_rejects_non_models(self):
        with pytest.raises(ConfigurationError):
            compose(FixedDelay(0.1), "not a model")

    def test_compose_requires_a_stage(self):
        with pytest.raises(ConfigurationError):
            ComposedFaults(stages=())


class TestCompose:
    def test_single_stage_returned_unchanged(self):
        delay = FixedDelay(0.2)
        assert compose(delay) is delay

    def test_nested_compositions_flatten(self):
        inner = compose(IndependentLoss(0.1), FixedDelay(0.2))
        outer = compose(inner, Duplication(0.5))
        assert isinstance(outer, ComposedFaults)
        assert len(outer.stages) == 3

    def test_stochastic_iff_any_stage_is(self):
        assert not compose(FixedDelay(0.1), NoFault()).is_stochastic
        assert compose(FixedDelay(0.1), IndependentLoss(0.5)).is_stochastic

    def test_describe_reads_as_pipeline(self):
        text = compose(IndependentLoss(0.3), FixedDelay(0.25)).describe()
        assert "loss" in text and "delay" in text and "+" in text

    def test_stage_order_matters_for_duplication(self):
        # Loss after duplication can kill individual copies; before it,
        # duplication only sees survivors.
        rng = RngStream(0)
        process = compose(Duplication(1.0), IndependentLoss(0.0)).start()
        assert len(process.transform([0.0], rng)) == 2


class TestPresetEquivalence:
    def test_no_disturbance_maps_to_identity(self):
        assert isinstance(no_disturbance().as_fault_model(), NoFault)

    def test_messages_lost_always_drops(self):
        channel, drained = _run_channel(
            messages_lost().as_fault_model(), n_sends=20
        )
        assert drained == []
        assert channel.stats.dropped == 20

    def test_delayed_preset_channels_agree(self):
        """Preset channel and explicit fault channel draw identically."""
        preset = Channel(
            period=DT,
            faults=messages_delayed(0.25, 0.3).as_fault_model(),
            rng=RngStream(9),
        )
        explicit = Channel(
            period=DT,
            faults=compose(IndependentLoss(0.3), FixedDelay(0.25)),
            rng=RngStream(9),
        )
        for k in range(100):
            t = k * DT
            preset.send(1, t, STATE)
            explicit.send(1, t, STATE)
        a = _drain(preset, 15.0)
        b = _drain(explicit, 15.0)
        assert [m.stamp for m in a] == [m.stamp for m in b]
        assert preset.stats.dropped == explicit.stats.dropped


class TestGilbertElliott:
    def test_never_entering_burst_never_drops(self):
        channel, drained = _run_channel(
            GilbertElliottLoss(p_enter_burst=0.0, p_exit_burst=0.5), n_sends=50
        )
        assert len(drained) == 50
        assert channel.stats.dropped == 0

    def test_permanent_burst_drops_everything(self):
        channel, drained = _run_channel(
            GilbertElliottLoss(p_enter_burst=1.0, p_exit_burst=0.0), n_sends=50
        )
        assert drained == []
        assert channel.stats.dropped == 50

    def test_start_bad_with_immediate_exit_never_drops(self):
        channel, drained = _run_channel(
            GilbertElliottLoss(
                p_enter_burst=0.0, p_exit_burst=1.0, start_bad=True
            ),
            n_sends=50,
        )
        assert len(drained) == 50

    def test_losses_arrive_in_bursts(self):
        """Drop runs under GE are much longer than independent loss at
        the same average rate would produce."""
        model = GilbertElliottLoss(p_enter_burst=0.02, p_exit_burst=0.2)
        channel = Channel(period=DT, faults=model, rng=RngStream(5))
        pattern = []
        for k in range(2000):
            pattern.append(channel.send(1, k * DT, STATE))
        runs = []
        current = 0
        for ok in pattern:
            if not ok:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        assert runs, "expected at least one burst"
        # Mean burst length is 1/p_exit = 5 messages; independent loss
        # gives ~1.1.  A loose threshold keeps the test seed-robust.
        assert sum(runs) / len(runs) > 2.0

    def test_processes_do_not_share_state(self):
        model = GilbertElliottLoss(
            p_enter_burst=0.0, p_exit_burst=0.0, start_bad=True
        )
        p1, p2 = model.start(), model.start()
        assert p1 is not p2
        assert p1.in_burst and p2.in_burst


class TestJitterAndReordering:
    def test_jitter_wider_than_period_reorders(self):
        channel, drained = _run_channel(
            UniformJitter(0.0, 0.5), n_sends=300, seed=2
        )
        assert len(drained) == 300
        stamps = [m.stamp for m in drained]
        assert stamps != sorted(stamps)
        assert channel.stats.out_of_order > 0
        assert channel.stats.out_of_order == sum(
            1
            for i, s in enumerate(stamps)
            if s < max(stamps[:i], default=-math.inf)
        )

    def test_gaussian_jitter_respects_truncation(self):
        model = GaussianJitter(mean=0.2, std=0.3, low=0.05, high=0.4)
        process = model.start()
        rng = RngStream(7)
        for _ in range(500):
            (offset,) = process.transform([0.0], rng)
            assert 0.05 <= offset <= 0.4

    def test_degenerate_jitter_is_deterministic(self):
        assert not UniformJitter(0.2, 0.2).is_stochastic
        assert not GaussianJitter(mean=0.2, std=0.0).is_stochastic
        channel = Channel(period=DT, faults=UniformJitter(0.2, 0.2))
        channel.send(1, 0.0, STATE)
        assert channel.peek_next_delivery() == pytest.approx(0.2)


class TestDuplication:
    def test_always_duplicate_doubles_deliveries(self):
        channel, drained = _run_channel(Duplication(1.0), n_sends=40)
        assert channel.stats.duplicated == 40
        assert channel.stats.delivered == 80
        assert len(drained) == 80

    def test_duplicate_lag_shifts_second_copy(self):
        channel = Channel(
            period=DT, faults=Duplication(1.0, lag=0.3), rng=RngStream(0)
        )
        channel.send(1, 0.0, STATE)
        assert channel.receive(0.0) != []
        assert channel.peek_next_delivery() == pytest.approx(0.3)

    def test_duplicates_at_equal_time_are_not_out_of_order(self):
        channel, drained = _run_channel(Duplication(1.0), n_sends=10)
        assert channel.stats.out_of_order == 0


class TestConservation:
    @pytest.mark.parametrize(
        "faults",
        [
            NoFault(),
            IndependentLoss(0.4),
            GilbertElliottLoss(p_enter_burst=0.1, p_exit_burst=0.3),
            UniformJitter(0.0, 0.6),
            Duplication(0.5, lag=0.2),
            compose(
                GilbertElliottLoss(p_enter_burst=0.05, p_exit_burst=0.4),
                FixedDelay(0.25),
                UniformJitter(0.0, 0.3),
                Duplication(0.2, lag=0.1),
            ),
        ],
    )
    def test_in_flight_never_negative_and_drains_to_zero(self, faults):
        channel = Channel(
            period=DT,
            faults=faults,
            rng=RngStream(11) if faults.is_stochastic else None,
        )
        for k in range(150):
            channel.send(1, k * DT, STATE)
            channel.receive(k * DT)
            assert channel.stats.in_flight >= 0
        _drain(channel, 150 * DT + 10.0)
        assert channel.stats.in_flight == 0
        s = channel.stats
        assert s.delivered == s.sent - s.dropped + s.duplicated


class _AlternatingDelay(FaultModel):
    """Test-only model: delays alternate 0.2 / 0.1 so that consecutive
    sends collide at the same delivery instant."""

    @property
    def is_stochastic(self):
        return False

    def start(self):
        outer = self

        class _Process(FaultProcess):
            def __init__(self):
                self._count = 0

            def transform(self, offsets, rng):
                delay = 0.2 if self._count % 2 == 0 else 0.1
                self._count += 1
                return [o + delay for o in offsets]

        return _Process()

    def describe(self):
        return "alternating delay 0.2/0.1"


class TestTieBreaking:
    def test_equal_delivery_times_keep_send_order(self):
        """Sent at 0.0 (+0.2) and 0.1 (+0.1): both land at t=0.2 and
        must come out in send order."""
        channel = Channel(period=DT, faults=_AlternatingDelay())
        channel.send(1, 0.0, STATE)
        channel.send(1, 0.1, STATE)
        delivered = channel.receive(0.2)
        assert [m.stamp for m in delivered] == [0.0, 0.1]
        assert channel.stats.out_of_order == 0


class TestChannelConstruction:
    def test_stochastic_model_requires_rng(self):
        with pytest.raises(ConfigurationError):
            Channel(period=DT, faults=IndependentLoss(0.5))

    def test_deterministic_model_needs_no_rng(self):
        channel = Channel(period=DT, faults=FixedDelay(0.2))
        assert channel.faults == FixedDelay(0.2)

    def test_same_seed_reproduces_deliveries_exactly(self):
        pipeline = compose(
            GilbertElliottLoss(p_enter_burst=0.05, p_exit_burst=0.4),
            UniformJitter(0.0, 0.3),
            Duplication(0.2),
        )
        runs = []
        for _ in range(2):
            channel = Channel(period=DT, faults=pipeline, rng=RngStream(21))
            for k in range(100):
                channel.send(1, k * DT, STATE)
            runs.append([m.stamp for m in _drain(channel, 25.0)])
        assert runs[0] == runs[1]


class TestReplayUnderFaults:
    """The estimator stack must absorb duplicates and reordering."""

    def _rkf(self):
        return ReplayKalmanFilter(KalmanFilter(DT, NoiseBounds.uniform_all(1.0)))

    def _seed(self, rkf):
        rkf.on_sensor_reading(
            SensorReading(
                target=1, time=0.0, position=50.0, velocity=-12.0,
                acceleration=0.0,
            )
        )

    def test_duplicate_message_is_ignored(self):
        rkf = self._rkf()
        self._seed(rkf)
        message = Message(sender=1, stamp=0.1, state=STATE)
        first = rkf.on_message(message, now=0.2)
        assert first is not None
        assert rkf.on_message(message, now=0.3) is None

    def test_out_of_order_older_message_is_ignored(self):
        rkf = self._rkf()
        self._seed(rkf)
        newer = Message(sender=1, stamp=0.3, state=STATE)
        older = Message(sender=1, stamp=0.1, state=STATE)
        assert rkf.on_message(newer, now=0.4) is not None
        assert rkf.on_message(older, now=0.4) is None
