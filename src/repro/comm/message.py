"""V2V message content.

Per the paper's system model (Section II-A, "Message"), every ``dt_m``
seconds each connected vehicle broadcasts its exact state
``(p_i(t), v_i(t), a_i(t))`` stamped with the sampling time ``t``.  The
*content* is accurate; only its *delivery* may be delayed or dropped,
which the :mod:`repro.comm.channel` module models.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError

__all__ = ["Message"]

_INF = math.inf


class _MessageFields(NamedTuple):
    sender: int
    stamp: float
    position: float
    velocity: float
    acceleration: float


class Message(_MessageFields):
    """A stamped state broadcast by one vehicle.

    One flat, immutable record, checked on construction:

    sender:
        Index of the broadcasting vehicle (1..n-1; the ego does not send
        to itself).
    stamp:
        The timestamp ``t_k`` at which the state was sampled.  The
        receiver uses ``stamp`` for reachability analysis and for the
        Kalman-filter message replay.
    position, velocity, acceleration:
        The exact ``(p, v, a)`` of the sender at ``stamp``.

    ``Message(sender, stamp, state)`` builds one from a
    :class:`~repro.dynamics.state.VehicleState`; :meth:`of` builds one
    from the floats.  Both raise :class:`~repro.errors.ConfigurationError`
    for a negative sender, a non-finite or negative stamp and a
    non-finite state field.  :attr:`state` builds the
    :class:`VehicleState` only when read.

    Units: stamp [s], position [m], velocity [m/s], acceleration [m/s^2]
    """

    __slots__ = ()

    def __new__(cls, sender: int, stamp: float, state: VehicleState) -> "Message":
        return cls.of(
            sender, stamp, state.position, state.velocity, state.acceleration
        )

    @classmethod
    def of(
        cls,
        sender: int,
        stamp: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> "Message":
        """The message with these fields, checked.

        Units: stamp [s], position [m], velocity [m/s], acceleration [m/s^2]
        """
        if sender < 0:
            raise ConfigurationError(f"Message.sender must be >= 0, got {sender}")
        # Finite floats lie strictly between the infinities; NaN fails both.
        if not -_INF < stamp < _INF:
            raise ConfigurationError(f"Message.stamp must be finite, got {stamp!r}")
        if stamp < 0.0:
            raise ConfigurationError(
                f"Message.stamp must be >= 0 (simulation starts at t=0), "
                f"got {stamp!r}"
            )
        # The filter replays message content as *exact* state; a corrupted
        # payload must fail here, not propagate into the safety argument.
        if not (
            -_INF < position < _INF
            and -_INF < velocity < _INF
            and -_INF < acceleration < _INF
        ):
            for name, value in (
                ("position", position),
                ("velocity", velocity),
                ("acceleration", acceleration),
            ):
                if not math.isfinite(float(value)):
                    raise ConfigurationError(
                        f"Message.state.{name} must be finite, got {float(value)!r}"
                    )
        return tuple.__new__(cls, (sender, stamp, position, velocity, acceleration))

    def __reduce__(self):
        return (_message_of, tuple(self))

    @property
    def state(self) -> VehicleState:
        """The exact ``(p, v, a)`` as a :class:`VehicleState`."""
        return VehicleState(self.position, self.velocity, self.acceleration)

    def age(self, now: float) -> float:
        """Seconds elapsed since the message content was sampled.

        Units: now [s] -> [s]
        """
        return float(now) - self.stamp

    def __str__(self) -> str:
        return f"msg[C{self.sender} @ t={self.stamp:.3f}s: {self.state}]"


def _message_of(*fields) -> Message:
    """Unpickle a :class:`Message` from its fields."""
    return Message.of(*fields)
