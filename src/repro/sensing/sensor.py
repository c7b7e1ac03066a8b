"""Periodic onboard sensor of remote vehicles.

Per the paper's system model, every ``dt_s`` seconds the ego vehicle
obtains a *delay-free but inaccurate* measurement ``(p_s, v_s, a_s)`` of
each other vehicle, each component uniformly perturbed within its noise
bound.  A :class:`Sensor` observes one remote vehicle; the simulation
engine holds one per (ego, other) pair.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.sensing.noise import NoiseBounds
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = ["SensorReading", "Sensor"]


class SensorReading(NamedTuple):
    """One noisy measurement of a remote vehicle.

    A flat, immutable record (a ``NamedTuple``, like
    :class:`~repro.filtering.kalman.KalmanState`); the estimators check
    its fields when they ingest it.

    Attributes
    ----------
    target:
        Index of the measured vehicle.
    time:
        Measurement timestamp (measurements are delay-free, so this is
        also the time the reading becomes available).
    position, velocity, acceleration:
        Measured values, each within its uniform noise bound of the truth.

    Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
    """

    target: int
    time: float
    position: float
    velocity: float
    acceleration: float

    def __str__(self) -> str:
        return (
            f"sense[C{self.target} @ t={self.time:.3f}s: "
            f"p={self.position:.3f} v={self.velocity:.3f} "
            f"a={self.acceleration:.3f}]"
        )


class Sensor:
    """Periodic noisy observer of one remote vehicle.

    Parameters
    ----------
    target:
        Index of the observed vehicle.
    period:
        Sensing period ``dt_s``; samples occur at ``t = 0, dt_s, ...``.
    bounds:
        Uniform noise bounds for the three measured channels.
    rng:
        Stream the measurement errors are drawn from.
    """

    def __init__(
        self,
        target: int,
        period: float,
        bounds: NoiseBounds,
        rng: RngStream,
    ) -> None:
        self._target = int(target)
        self._period = check_positive(period, "period")
        self._bounds = bounds
        self._random = rng.random
        # Each channel's error is the stream's ``uniform(-delta, delta)``
        # draw, numpy's ``low + (high - low) * random()``: its
        # ``(low, high - low)``, with a zero span for a noiseless channel,
        # which draws nothing.
        spans = []
        for name, delta in (
            ("delta_p", bounds.delta_p),
            ("delta_v", bounds.delta_v),
            ("delta_a", bounds.delta_a),
        ):
            low = float(-delta)
            span = float(delta) - low
            if not math.isfinite(span):
                raise ConfigurationError(
                    f"{name}={delta!r}: the noise range overflows a float"
                )
            spans.append((low, span))
        self._spans = tuple(spans)

    @property
    def target(self) -> int:
        """Index of the observed vehicle."""
        return self._target

    @property
    def period(self) -> float:
        """Sensing period ``dt_s``."""
        return self._period

    @property
    def bounds(self) -> NoiseBounds:
        """The sensor's noise bounds."""
        return self._bounds

    def is_sample_time(self, time: float, tol: float = 1e-9) -> bool:
        """Whether ``time`` falls on the sensing schedule.

        Units: time [s]
        """
        ratio = time / self._period
        return abs(ratio - round(ratio)) <= tol * max(1.0, abs(ratio))

    def measure(
        self, time: float, position: float, velocity: float, acceleration: float
    ) -> SensorReading:
        """Take a measurement of the true ``(position, velocity, acceleration)``.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]

        The caller (the simulation engine) is responsible for calling this
        only at schedule instants; the sensor itself just perturbs.  Each
        error is the stream's ``uniform(-delta, delta)`` for its channel,
        bit for bit, drawn one double each in the order position,
        velocity, acceleration (a noiseless channel draws nothing).

        Effects: draws-rng
        """
        random = self._random
        (p_low, p_span), (v_low, v_span), (a_low, a_span) = self._spans
        if p_span:
            position = position + (p_low + p_span * random())
        if v_span:
            velocity = velocity + (v_low + v_span * random())
        if a_span:
            acceleration = acceleration + (a_low + a_span * random())
        return tuple.__new__(
            SensorReading,
            (self._target, float(time), position, velocity, acceleration),
        )
