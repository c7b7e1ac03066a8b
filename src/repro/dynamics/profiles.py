"""Acceleration profiles for non-ego vehicles.

The paper's evaluation (Section V-A) drives the oncoming vehicle ``C_1``
with "a randomly generated sequence of accelerations in which the *i*-th
element is the control input of ``C_1`` at the *i*-th timestamp".
:class:`RandomSequenceProfile` reproduces that workload; the other profiles
provide structured behaviours (constant speed, braking events, sinusoidal
speed oscillation) used in examples, ablations, and tests.

A profile is a callable of ``(step_index, time, position, velocity,
acceleration)`` returning the acceleration command for the coming control
step, so profiles may be open-loop (pre-generated sequences) or
state-feedback (e.g. hold a target speed).  The vehicle's state arrives
as the three floats, the acceleration being the one applied over the
last step.
"""

from __future__ import annotations

import math
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.utils.rng import RngStream
from repro.utils.validation import check_nonnegative, check_positive, check_range

__all__ = [
    "AccelerationProfile",
    "ConstantProfile",
    "RandomSequenceProfile",
    "RandomWalkProfile",
    "PiecewiseProfile",
    "SinusoidProfile",
    "BrakeThenGoProfile",
    "SpeedHoldProfile",
]


class AccelerationProfile(Protocol):
    """Protocol for acceleration command sources.

    Implementations return the acceleration to apply over the control step
    that *starts* at ``(step_index, time)`` given the vehicle's current
    ``position``, ``velocity`` and last applied ``acceleration``.
    """

    def __call__(
        self,
        step_index: int,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> float:
        """Return the acceleration command for the coming step.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]
        """
        ...


class ConstantProfile:
    """Always command the same acceleration (0 by default: constant speed)."""

    def __init__(self, acceleration: float = 0.0) -> None:
        self._acceleration = float(acceleration)

    def __call__(
        self,
        step_index: int,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> float:
        return self._acceleration


class RandomSequenceProfile:
    """I.i.d. random acceleration per control step — the paper's workload.

    Each step draws uniformly from ``[a_low, a_high]``.  The sequence is
    generated lazily but cached, so querying the same step twice returns
    the same value and the full realised sequence can be inspected after a
    simulation.

    Parameters
    ----------
    rng:
        Seeded random stream; pass an independent child stream per
        simulation for reproducible batches.
    a_low, a_high:
        Draw bounds, m/s².  The defaults (±2 m/s²) keep the oncoming
        vehicle's behaviour plausible while leaving its passing-time
        window genuinely uncertain.
    """

    def __init__(
        self,
        rng: RngStream,
        a_low: float = -2.0,
        a_high: float = 2.0,
    ) -> None:
        """Bind the stream and bounds; draws happen lazily per step.

        Effects: mutates-args, draws-rng
        """
        self._rng = rng
        self._a_low, self._a_high = check_range(a_low, a_high, "a_low", "a_high")
        self._sequence: List[float] = []

    def __call__(
        self,
        step_index: int,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> float:
        if step_index < 0:
            raise ConfigurationError(f"step_index must be >= 0, got {step_index}")
        while len(self._sequence) <= step_index:
            self._sequence.append(
                float(self._rng.uniform(self._a_low, self._a_high))
            )
        return self._sequence[step_index]

    @property
    def realized_sequence(self) -> Tuple[float, ...]:
        """The accelerations drawn so far, in step order."""
        return tuple(self._sequence)


class RandomWalkProfile:
    """Acceleration follows a bounded random walk (smoother than i.i.d.).

    Each step perturbs the previous acceleration by a uniform increment in
    ``[-max_step, +max_step]`` and clips to ``[a_low, a_high]``.  Used for
    the figure-6 trajectory sampling where a physically smooth speed trace
    makes the filter behaviour legible.
    """

    def __init__(
        self,
        rng: RngStream,
        a_low: float = -2.0,
        a_high: float = 2.0,
        max_step: float = 0.5,
        initial: float = 0.0,
    ) -> None:
        """Bind the stream and walk bounds; draws happen lazily per step.

        Effects: mutates-args, draws-rng
        """
        self._rng = rng
        self._a_low, self._a_high = check_range(a_low, a_high, "a_low", "a_high")
        self._max_step = check_positive(max_step, "max_step")
        if not self._a_low <= initial <= self._a_high:
            raise ConfigurationError(
                f"initial acceleration {initial} outside [{a_low}, {a_high}]"
            )
        self._initial = float(initial)
        self._sequence: List[float] = []

    def __call__(
        self,
        step_index: int,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> float:
        if step_index < 0:
            raise ConfigurationError(f"step_index must be >= 0, got {step_index}")
        while len(self._sequence) <= step_index:
            prev = self._sequence[-1] if self._sequence else self._initial
            step = float(self._rng.uniform(-self._max_step, self._max_step))
            nxt = min(max(prev + step, self._a_low), self._a_high)
            self._sequence.append(nxt)
        return self._sequence[step_index]

    @property
    def realized_sequence(self) -> Tuple[float, ...]:
        """The accelerations drawn so far, in step order."""
        return tuple(self._sequence)


class PiecewiseProfile:
    """Piecewise-constant acceleration given as ``(start_time, value)`` knots.

    The value of the most recent knot at or before the query time applies;
    before the first knot the acceleration is 0.
    """

    def __init__(self, knots: Sequence[Tuple[float, float]]) -> None:
        if not knots:
            raise ConfigurationError("PiecewiseProfile needs at least one knot")
        ordered = sorted((float(t), float(a)) for t, a in knots)
        times = [t for t, _ in ordered]
        if len(set(times)) != len(times):
            raise ConfigurationError("PiecewiseProfile knot times must be unique")
        self._knots = ordered

    def __call__(
        self,
        step_index: int,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> float:
        value = 0.0
        for knot_time, knot_value in self._knots:
            if time >= knot_time:
                value = knot_value
            else:
                break
        return value


class SinusoidProfile:
    """Sinusoidal acceleration ``amplitude * sin(2*pi*t/period + phase)``.

    Produces a gently oscillating speed — a structured stress case for the
    Kalman filter (non-constant but bounded acceleration).
    """

    def __init__(
        self, amplitude: float = 1.0, period: float = 10.0, phase: float = 0.0
    ) -> None:
        self._amplitude = check_nonnegative(amplitude, "amplitude")
        self._period = check_positive(period, "period")
        self._phase = float(phase)

    def __call__(
        self,
        step_index: int,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> float:
        return self._amplitude * math.sin(
            2.0 * math.pi * time / self._period + self._phase
        )


class BrakeThenGoProfile:
    """Hard brake over a window, then accelerate back — a worst-ish case.

    Models an oncoming vehicle that suddenly slows (tempting an aggressive
    ego to commit to the turn) and then speeds up again.  Parameters give
    the braking window ``[t_brake, t_go)`` and the two acceleration
    levels.
    """

    def __init__(
        self,
        t_brake: float = 1.0,
        t_go: float = 3.0,
        brake_accel: float = -3.0,
        go_accel: float = 2.0,
    ) -> None:
        if t_go <= t_brake:
            raise ConfigurationError(
                f"t_go ({t_go}) must exceed t_brake ({t_brake})"
            )
        self._t_brake = float(t_brake)
        self._t_go = float(t_go)
        self._brake_accel = float(brake_accel)
        self._go_accel = float(go_accel)

    def __call__(
        self,
        step_index: int,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> float:
        if time < self._t_brake:
            return 0.0
        if time < self._t_go:
            return self._brake_accel
        return self._go_accel


class SpeedHoldProfile:
    """Proportional controller holding a target speed.

    Feedback profile used in the car-following scenario: commands
    ``gain * (v_target - v)`` clipped to ``[a_low, a_high]``.
    """

    def __init__(
        self,
        v_target: float,
        gain: float = 1.0,
        a_low: float = -3.0,
        a_high: float = 3.0,
        switch_time: Optional[float] = None,
        v_target_after: Optional[float] = None,
    ) -> None:
        self._v_target = check_nonnegative(v_target, "v_target")
        self._gain = check_positive(gain, "gain")
        self._a_low, self._a_high = check_range(a_low, a_high, "a_low", "a_high")
        self._switch_time = switch_time
        self._v_target_after = v_target_after
        if (switch_time is None) != (v_target_after is None):
            raise ConfigurationError(
                "switch_time and v_target_after must be given together"
            )

    def __call__(
        self,
        step_index: int,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> float:
        target = self._v_target
        if self._switch_time is not None and time >= self._switch_time:
            target = float(self._v_target_after)  # validated in __init__
        a = self._gain * (target - velocity)
        return min(max(a, self._a_low), self._a_high)
