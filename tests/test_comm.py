"""Tests for messages, the paper's channel presets, and the channel."""

import copy
import math

import pytest

from repro.comm.channel import Channel
from repro.comm.faults import (
    FixedDelay,
    IndependentLoss,
    NoFault,
    compose,
    messages_delayed,
    messages_lost,
    no_disturbance,
)
from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError
from repro.utils.rng import RngStream

STATE = VehicleState(position=50.0, velocity=-12.0, acceleration=0.5)
#: ``STATE`` as the floats ``Channel.send`` takes.
FIELDS = (STATE.position, STATE.velocity, STATE.acceleration)


def _sends(faults, rng, n=1):
    """Whether each of ``n`` sends through the preset's channel survives."""
    ch = Channel(period=0.1, faults=faults, rng=rng)
    return [ch.send(1, i * 0.1, *FIELDS) for i in range(n)]


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

    def test_flat_fields_and_both_constructors(self):
        m = Message.of(1, 2.5, *FIELDS)
        assert m == Message(sender=1, stamp=2.5, state=STATE)
        assert (m.position, m.velocity, m.acceleration) == FIELDS
        assert m.state == STATE
        # deepcopy goes through __reduce_ex__, as pickling does.
        assert copy.deepcopy(m) == m

    def test_of_checks_like_the_state_form(self):
        with pytest.raises(ConfigurationError, match=r"^Message\.sender"):
            Message.of(-1, 0.0, *FIELDS)
        with pytest.raises(ConfigurationError, match=r"^Message\.stamp must be finite"):
            Message.of(1, math.inf, *FIELDS)
        with pytest.raises(ConfigurationError, match=r"^Message\.stamp must be >= 0"):
            Message.of(1, -0.1, *FIELDS)
        with pytest.raises(
            ConfigurationError, match=r"^Message\.state\.velocity must be finite, got nan$"
        ):
            Message.of(1, 0.0, 50.0, math.nan, 0.5)


class TestPresets:
    """The paper's three settings are plain fault models."""

    def test_preset_mapping(self):
        assert no_disturbance() == NoFault()
        assert messages_delayed(0.25, 0.3) == compose(
            IndependentLoss(0.3), FixedDelay(0.25)
        )
        assert messages_delayed(0.25, 0.0) == FixedDelay(0.25)
        assert messages_lost() == IndependentLoss(1.0)

    def test_no_disturbance(self):
        assert _sends(no_disturbance(), None) == [True]

    def test_messages_delayed_defaults(self):
        assert messages_delayed() == FixedDelay(0.25)

    def test_messages_lost(self):
        assert _sends(messages_lost(), RngStream(0)) == [False]

    def test_drop_decision_extremes(self):
        rng = RngStream(1)
        assert _sends(messages_delayed(0.0, 0.0), rng) == [True]
        assert _sends(messages_delayed(0.0, 1.0), rng) == [False]

    def test_invalid_probability_rejected(self):
        for probability in (1.5, -0.1, math.nan):
            with pytest.raises(ConfigurationError):
                messages_delayed(0.25, probability)

    def test_negative_delay_rejected(self):
        for delay in (-0.1, math.nan):
            with pytest.raises(ConfigurationError):
                messages_delayed(delay, 0.3)


class TestChannelPerfect:
    def test_immediate_delivery(self):
        ch = Channel(period=0.1)
        ch.send(1, 0.0, *FIELDS)
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
            ch.send(1, i * 0.1, *FIELDS)
        stamps = [m.stamp for m in ch.receive(1.0)]
        assert stamps == [0.0, 0.1, 0.2]

    def test_transmission_schedule(self):
        ch = Channel(period=0.1)
        assert ch.is_transmission_time(0.0)
        assert ch.is_transmission_time(0.3)
        assert not ch.is_transmission_time(0.05)


class TestChannelDelay:
    def test_delayed_delivery(self):
        ch = Channel(period=0.1, faults=messages_delayed(0.25))
        ch.send(1, 1.0, *FIELDS)
        assert ch.receive(1.2) == []
        delivered = ch.receive(1.25)
        assert len(delivered) == 1
        assert delivered[0].stamp == 1.0

    def test_peek_next_delivery(self):
        ch = Channel(period=0.1, faults=messages_delayed(0.25))
        assert ch.peek_next_delivery() is None
        ch.send(1, 2.0, *FIELDS)
        assert ch.peek_next_delivery() == pytest.approx(2.25)

    def test_stats_track_delay(self):
        ch = Channel(period=0.1, faults=messages_delayed(0.25))
        ch.send(1, 0.0, *FIELDS)
        ch.receive(0.25)
        assert ch.stats.mean_delay == pytest.approx(0.25)


class TestChannelDrop:
    def test_always_drop(self):
        ch = Channel(period=0.1, faults=messages_lost())
        assert ch.send(1, 0.0, *FIELDS) is False
        assert ch.receive(100.0) == []
        assert ch.stats.dropped == 1

    def test_probabilistic_drop_rate(self):
        ch = Channel(
            period=0.1,
            faults=messages_delayed(0.0, 0.4),
            rng=RngStream(9),
        )
        n = 2000
        for i in range(n):
            ch.send(1, i * 0.1, *FIELDS)
        assert 0.33 < ch.stats.drop_rate < 0.47

    def test_probabilistic_drop_requires_rng(self):
        with pytest.raises(ConfigurationError):
            Channel(period=0.1, faults=messages_delayed(0.0, 0.5))

    def test_drop_sequence_reproducible(self):
        def run(seed):
            ch = Channel(
                period=0.1,
                faults=messages_delayed(0.0, 0.5),
                rng=RngStream(seed),
            )
            return [ch.send(1, i * 0.1, *FIELDS) for i in range(50)]

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestChannelStats:
    def test_counters(self):
        ch = Channel(period=0.1, faults=messages_delayed(0.5))
        ch.send(1, 0.0, *FIELDS)
        ch.send(1, 0.1, *FIELDS)
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
