"""Intelligent Driver Model planner and a naive gap-chaser.

Two planners for the car-following scenario:

* :class:`IDMPlanner` — the classic Intelligent Driver Model (Treiber et
  al.), the "traditional model-based planner" archetype the paper's
  introduction contrasts NN planners against.  Well-tuned IDM is smooth
  and safe but conservative.
* :class:`GapChaserPlanner` — a deliberately aggressive baseline that
  drives at its desired speed and only brakes proportionally to gap
  deficit; it tailgates and violates the safety gap under hard leader
  braking, making it the car-following analogue of ``kappa_{n,aggr}``
  for compound-planner demonstrations.

Both consume the leader's fused estimate through the standard
:class:`~repro.planners.base.PlanningContext`.
"""

from __future__ import annotations

import math

from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError
from repro.planners.base import PlanningContext

__all__ = ["IDMPlanner", "GapChaserPlanner"]


class IDMPlanner:
    """Intelligent Driver Model acceleration law.

    .. math::

        a = a_{max}\\,[1 - (v/v_0)^4 - (s^*(v, \\Delta v)/s)^2],
        \\qquad
        s^* = s_0 + v T + \\frac{v\\,\\Delta v}{2\\sqrt{a_{max} b}}

    Parameters
    ----------
    limits:
        Ego actuation limits (outputs are clipped to them).
    desired_speed:
        Free-flow target speed ``v_0``.
    time_headway:
        Safe time headway ``T``.
    min_gap:
        Jam distance ``s_0``.
    comfort_brake:
        Comfortable deceleration ``b`` (positive).
    leader_index:
        Which estimate is the leader.
    """

    def __init__(
        self,
        limits: VehicleLimits,
        desired_speed: float = 25.0,
        time_headway: float = 1.5,
        min_gap: float = 6.0,
        comfort_brake: float = 2.0,
        leader_index: int = 1,
    ) -> None:
        if desired_speed <= 0.0:
            raise ConfigurationError("desired_speed must be > 0")
        if time_headway <= 0.0:
            raise ConfigurationError("time_headway must be > 0")
        if min_gap <= 0.0:
            raise ConfigurationError("min_gap must be > 0")
        if comfort_brake <= 0.0:
            raise ConfigurationError("comfort_brake must be > 0")
        self._limits = limits
        self._v0 = float(desired_speed)
        self._t = float(time_headway)
        self._s0 = float(min_gap)
        self._b = float(comfort_brake)
        self._leader = leader_index

    def plan(self, context: PlanningContext) -> float:
        """IDM acceleration from the leader's nominal estimate."""
        estimate = context.estimate_of(self._leader)
        v = max(context.ego.velocity, 0.0)
        gap = max(estimate.p - context.ego.position, 0.1)
        dv = v - estimate.v
        a_max = self._limits.a_max
        s_star = self._s0 + v * self._t + v * dv / (
            2.0 * math.sqrt(a_max * self._b)
        )
        accel = a_max * (
            1.0 - (v / self._v0) ** 4 - (max(s_star, 0.0) / gap) ** 2
        )
        return self._limits.clip_acceleration(accel)


class GapChaserPlanner:
    """Aggressive baseline: full speed unless the gap deficit is acute.

    Tracks ``desired_speed`` with a proportional law and superposes a
    braking term only when the *nominal* gap falls under
    ``brake_headway`` seconds — too late under adversarial leader
    braking, which is the point: wrapped in the compound planner the
    monitor provides the missing safety.
    """

    def __init__(
        self,
        limits: VehicleLimits,
        desired_speed: float = 28.0,
        brake_headway: float = 0.6,
        gain: float = 1.5,
        leader_index: int = 1,
    ) -> None:
        if desired_speed <= 0.0:
            raise ConfigurationError("desired_speed must be > 0")
        if brake_headway <= 0.0:
            raise ConfigurationError("brake_headway must be > 0")
        if gain <= 0.0:
            raise ConfigurationError("gain must be > 0")
        self._limits = limits
        self._v0 = float(desired_speed)
        self._headway = float(brake_headway)
        self._gain = float(gain)
        self._leader = leader_index

    def plan(self, context: PlanningContext) -> float:
        """Chase the desired speed; brake only on acute gap deficit."""
        estimate = context.estimate_of(self._leader)
        v = max(context.ego.velocity, 0.0)
        gap = estimate.p - context.ego.position
        command = self._gain * (self._v0 - v)
        if v > 0.0 and gap / max(v, 1e-6) < self._headway:
            command = self._limits.a_min
        return self._limits.clip_acceleration(command)
