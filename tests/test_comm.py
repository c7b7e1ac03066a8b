"""Tests for messages, disturbance models, and the disturbed channel."""

import math

import pytest

from repro.comm.channel import Channel
from repro.comm.disturbance import (
    DisturbanceModel,
    messages_delayed,
    messages_lost,
    no_disturbance,
)
from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError
from repro.utils.rng import RngStream

STATE = VehicleState(position=50.0, velocity=-12.0, acceleration=0.5)


def _sends(disturbance, rng, n=1):
    """Whether each of ``n`` sends through the preset's channel survives."""
    ch = Channel(period=0.1, faults=disturbance.as_fault_model(), rng=rng)
    return [ch.send(1, i * 0.1, STATE) for i in range(n)]


class TestMessage:
    def test_fields(self):
        m = Message(sender=1, stamp=2.5, state=STATE)
        assert m.sender == 1
        assert m.stamp == 2.5
        assert m.state.position == 50.0

    def test_age(self):
        m = Message(sender=1, stamp=2.0, state=STATE)
        assert m.age(3.5) == pytest.approx(1.5)

    def test_negative_sender_rejected(self):
        with pytest.raises(ConfigurationError):
            Message(sender=-1, stamp=0.0, state=STATE)

    def test_nan_stamp_rejected(self):
        with pytest.raises(ConfigurationError):
            Message(sender=0, stamp=math.nan, state=STATE)


class TestDisturbanceModels:
    def test_no_disturbance(self):
        d = no_disturbance()
        assert d.delay == 0.0
        assert d.drop_probability == 0.0
        assert not d.always_drops

    def test_messages_delayed_defaults(self):
        d = messages_delayed()
        assert d.delay == 0.25

    def test_messages_lost(self):
        d = messages_lost()
        assert d.always_drops
        assert _sends(d, RngStream(0)) == [False]

    def test_drop_decision_extremes(self):
        rng = RngStream(1)
        assert _sends(DisturbanceModel(drop_probability=0.0), rng) == [True]
        assert _sends(DisturbanceModel(drop_probability=1.0), rng) == [False]

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            DisturbanceModel(drop_probability=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            DisturbanceModel(delay=-0.1)

    def test_describe(self):
        assert "no disturbance" in no_disturbance().describe()
        assert "lost" in messages_lost().describe()
        assert "0.25" in messages_delayed(0.25, 0.1).describe()


class TestChannelPerfect:
    def test_immediate_delivery(self):
        ch = Channel(period=0.1)
        ch.send(1, 0.0, STATE)
        delivered = ch.receive(0.0)
        assert len(delivered) == 1
        assert delivered[0].stamp == 0.0
        assert delivered[0].state == STATE

    def test_nothing_before_send(self):
        ch = Channel(period=0.1)
        assert ch.receive(10.0) == []

    def test_fifo_order(self):
        ch = Channel(period=0.1)
        for i in range(3):
            ch.send(1, i * 0.1, STATE)
        stamps = [m.stamp for m in ch.receive(1.0)]
        assert stamps == [0.0, 0.1, 0.2]

    def test_transmission_schedule(self):
        ch = Channel(period=0.1)
        assert ch.is_transmission_time(0.0)
        assert ch.is_transmission_time(0.3)
        assert not ch.is_transmission_time(0.05)


class TestChannelDelay:
    def test_delayed_delivery(self):
        ch = Channel(period=0.1, faults=messages_delayed(0.25).as_fault_model())
        ch.send(1, 1.0, STATE)
        assert ch.receive(1.2) == []
        delivered = ch.receive(1.25)
        assert len(delivered) == 1
        assert delivered[0].stamp == 1.0

    def test_peek_next_delivery(self):
        ch = Channel(period=0.1, faults=messages_delayed(0.25).as_fault_model())
        assert ch.peek_next_delivery() is None
        ch.send(1, 2.0, STATE)
        assert ch.peek_next_delivery() == pytest.approx(2.25)

    def test_stats_track_delay(self):
        ch = Channel(period=0.1, faults=messages_delayed(0.25).as_fault_model())
        ch.send(1, 0.0, STATE)
        ch.receive(0.25)
        assert ch.stats.mean_delay == pytest.approx(0.25)


class TestChannelDrop:
    def test_always_drop(self):
        ch = Channel(period=0.1, faults=messages_lost().as_fault_model())
        assert ch.send(1, 0.0, STATE) is False
        assert ch.receive(100.0) == []
        assert ch.stats.dropped == 1

    def test_probabilistic_drop_rate(self):
        ch = Channel(
            period=0.1,
            faults=messages_delayed(0.0, 0.4).as_fault_model(),
            rng=RngStream(9),
        )
        n = 2000
        for i in range(n):
            ch.send(1, i * 0.1, STATE)
        assert 0.33 < ch.stats.drop_rate < 0.47

    def test_probabilistic_drop_requires_rng(self):
        with pytest.raises(ConfigurationError):
            Channel(period=0.1, faults=messages_delayed(0.0, 0.5).as_fault_model())

    def test_drop_sequence_reproducible(self):
        def run(seed):
            ch = Channel(
                period=0.1,
                faults=messages_delayed(0.0, 0.5).as_fault_model(),
                rng=RngStream(seed),
            )
            return [ch.send(1, i * 0.1, STATE) for i in range(50)]

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestChannelStats:
    def test_counters(self):
        ch = Channel(period=0.1, faults=messages_delayed(0.5).as_fault_model())
        ch.send(1, 0.0, STATE)
        ch.send(1, 0.1, STATE)
        assert ch.stats.sent == 2
        assert ch.stats.in_flight == 2
        ch.receive(0.5)
        assert ch.stats.delivered == 1
        assert ch.stats.in_flight == 1

    def test_empty_stats(self):
        ch = Channel(period=0.1)
        assert ch.stats.drop_rate == 0.0
        assert ch.stats.mean_delay == 0.0

    def test_invalid_period_rejected(self):
        with pytest.raises(ConfigurationError):
            Channel(period=0.0)
