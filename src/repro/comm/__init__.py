"""V2V communication substrate: messages, channels and their fault models."""

from repro.comm.message import Message
from repro.comm.channel import Channel, ChannelStats
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
    messages_delayed,
    messages_lost,
    no_disturbance,
)

__all__ = [
    "Message",
    "Channel",
    "ChannelStats",
    "no_disturbance",
    "messages_delayed",
    "messages_lost",
    "FaultModel",
    "FaultProcess",
    "NoFault",
    "IndependentLoss",
    "GilbertElliottLoss",
    "FixedDelay",
    "UniformJitter",
    "GaussianJitter",
    "Duplication",
    "ComposedFaults",
    "compose",
]
