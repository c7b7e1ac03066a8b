"""Double-integrator vehicle model with actuation and velocity limits.

The paper's vehicle model (Section II-A) is the exact discrete double
integrator

.. math::

    p(t + \\Delta t_c) = p(t) + v(t)\\,\\Delta t_c
                         + \\tfrac{1}{2} a(t)\\,\\Delta t_c^2,
    \\qquad
    v(t + \\Delta t_c) = v(t) + a(t)\\,\\Delta t_c ,

with physical limits ``v in [v_min, v_max]`` and ``a in [a_min, a_max]``
(``a_min < 0 < a_max``).  The reachability analysis of Eq. (2) relies on
the vehicle *saturating* at the velocity limits, so this model integrates
saturation exactly: when a step would cross a velocity bound, the step is
split at the crossing instant and the remainder is integrated at constant
(bounded) velocity.  That makes the reachability over-approximation sound
with respect to these dynamics — a property the test suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.dynamics.state import VehicleState, nan_state_error
from repro.errors import ConfigurationError
from repro.utils.validation import check_positive, check_range

__all__ = ["VehicleLimits", "VehicleModel"]

_INF = math.inf


@dataclass(frozen=True, slots=True)
class VehicleLimits:
    """Physical actuation and velocity limits of a vehicle.

    Attributes
    ----------
    v_min, v_max:
        Velocity bounds, m/s.  ``v_min`` is usually 0 for forward-only
        traffic but may be negative (reversing) in tests.
    a_min, a_max:
        Acceleration bounds, m/s².  ``a_min`` is the strongest braking
        (negative), ``a_max`` the strongest acceleration (positive).

    Units: v_min [m/s], v_max [m/s], a_min [m/s^2], a_max [m/s^2]
    """

    v_min: float
    v_max: float
    a_min: float
    a_max: float

    def __post_init__(self) -> None:
        v_min, v_max = check_range(self.v_min, self.v_max, "v_min", "v_max")
        a_min, a_max = check_range(self.a_min, self.a_max, "a_min", "a_max")
        if a_min >= 0.0:
            raise ConfigurationError(
                f"a_min must be negative (braking), got {self.a_min!r}"
            )
        if a_max <= 0.0:
            raise ConfigurationError(
                f"a_max must be positive, got {self.a_max!r}"
            )
        object.__setattr__(self, "v_min", v_min)
        object.__setattr__(self, "v_max", v_max)
        object.__setattr__(self, "a_min", a_min)
        object.__setattr__(self, "a_max", a_max)

    def clip_acceleration(self, a: float) -> float:
        """Clip an acceleration command to ``[a_min, a_max]``.

        Units: a [m/s^2] -> [m/s^2]
        """
        # min(max(a, a_min), a_max) as conditionals: the same result,
        # NaN included, without two builtin calls per control step.
        a = float(a)
        a_min = self.a_min
        a = a_min if a_min > a else a
        a_max = self.a_max
        return a_max if a_max < a else a

    def clip_velocity(self, v: float) -> float:
        """Clip a velocity to ``[v_min, v_max]``.

        Units: v [m/s] -> [m/s]
        """
        return min(max(float(v), self.v_min), self.v_max)

    def admissible_velocity(self, v: float) -> bool:
        """Whether ``v`` respects the velocity bounds.

        Units: v [m/s]
        """
        return self.v_min <= v <= self.v_max


#: Default limits used throughout examples and experiments: urban traffic
#: with 20 m/s (72 km/h) top speed, comfortable 4 m/s² acceleration and
#: 6 m/s² emergency braking.
DEFAULT_LIMITS = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)


class VehicleModel:
    """Steps :class:`VehicleState` forward under the paper's dynamics.

    Parameters
    ----------
    limits:
        Physical limits enforced during integration.

    Notes
    -----
    The model is deliberately stateless — it is a pure function of
    ``(state, acceleration, dt)`` — so a single instance can serve every
    vehicle with the same limits, and planners can use it for lookahead
    without touching simulation state.
    """

    def __init__(self, limits: VehicleLimits = DEFAULT_LIMITS) -> None:
        self._limits = limits

    @property
    def limits(self) -> VehicleLimits:
        """The limits enforced by this model."""
        return self._limits

    def step(self, state: VehicleState, acceleration: float, dt: float) -> VehicleState:
        """Integrate one control step of length ``dt``.

        The commanded ``acceleration`` is clipped to the actuation limits.
        If the velocity would cross ``v_min``/``v_max`` mid-step, the step
        is split at the crossing instant and the remainder integrated at
        the saturated velocity, so the returned position is exact.
        :meth:`advance` is the integrator; this wraps it.

        Units: acceleration [m/s^2], dt [s]

        Returns
        -------
        VehicleState
            State after ``dt`` with ``acceleration`` recording the clipped
            command actually applied (0 is recorded for the saturated
            portion only in the sense that velocity no longer changes; the
            *command* is what is stored).
        """
        return VehicleState(
            *self.advance(state.position, state.velocity, acceleration, dt)
        )

    def advance(
        self, position: float, velocity: float, acceleration: float, dt: float
    ) -> Tuple[float, float, float]:
        """:meth:`step` on plain floats: ``(position, velocity, command)``.

        Units: position [m], velocity [m/s], acceleration [m/s^2], dt [s]

        The one implementation of the saturating double integrator.  A
        non-positive, infinite or NaN ``dt`` raises as
        :func:`~repro.utils.validation.check_positive` does, and a NaN in
        the result raises the :class:`ConfigurationError` a
        :class:`VehicleState` holding it would.
        """
        if not 0.0 < dt < math.inf:
            check_positive(dt, "dt")  # raises: NaN, infinite or <= 0
        dt = float(dt)
        limits = self._limits
        # limits.clip_acceleration(acceleration), its two conditionals
        # written out: this runs for every vehicle on every step.
        a = float(acceleration)
        a = limits.a_min if limits.a_min > a else a
        a = limits.a_max if limits.a_max < a else a
        p0 = position
        v0 = velocity

        if a == 0.0:
            v1 = v0
            p1 = p0 + v0 * dt
        else:
            v_unclipped = v0 + a * dt
            bound = limits.v_max if a > 0.0 else limits.v_min
            if (a > 0.0 and v_unclipped <= bound) or (
                a < 0.0 and v_unclipped >= bound
            ):
                # No saturation: plain double-integrator update.
                p1 = p0 + v0 * dt + 0.5 * a * dt * dt
                v1 = v_unclipped
            else:
                # Saturates at `bound` after t_hit; beyond that, constant
                # velocity.
                if (a > 0.0 and v0 >= bound) or (a < 0.0 and v0 <= bound):
                    t_hit = 0.0  # already at (or beyond) the bound
                    p_hit = p0
                else:
                    t_hit = (bound - v0) / a
                    p_hit = p0 + v0 * t_hit + 0.5 * a * t_hit * t_hit
                p1 = p_hit + bound * (dt - t_hit)
                v1 = bound
        # NaN fails every comparison, infinities pass this one.
        if not (p1 <= _INF and v1 <= _INF and a <= _INF):
            raise nan_state_error(p1, v1, a)
        return p1, v1, a

    def simulate(
        self,
        state: VehicleState,
        accelerations,
        dt: float,
    ) -> list[VehicleState]:
        """Apply a sequence of accelerations, returning all visited states.

        The returned list has ``len(accelerations) + 1`` entries and starts
        with the initial state (accelerations are in m/s²).

        Units: dt [s]
        """
        states = [state]
        for a in accelerations:
            state = self.step(state, a, dt)
            states.append(state)
        return states
