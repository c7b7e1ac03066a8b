"""The left-turn emergency planner (Section IV, "Emergency planner").

The law is:

.. math::

    \\kappa_e(x(t)) = \\begin{cases}
        -\\dfrac{v_0(t)^2}{2 (p_f - p_0(t))}, & p_0(t) \\le p_f;\\\\
        a_{0,max}, & \\text{otherwise.}
    \\end{cases}

Before the front line it brakes with exactly the force needed to stop at
the line (the *least* braking that still guarantees never entering the
area); past the line it floors the throttle to escape the area as fast as
possible.  Whenever the runtime monitor selects it from inside the
boundary safe set — where the slack is still nonnegative, i.e. stopping
before the line is still feasible — the required deceleration is within
the actuation limits, which is the Eq. (4) invariant the property tests
check.

Numerical guards: at ``p_0 = p_f`` the formula divides by zero; this
implementation commands full braking there (the slack-nonnegative
precondition implies ``v_0 = 0`` at that point, so full braking is a safe
refinement), and all commands are clipped to the actuation limits.
"""

from __future__ import annotations

from typing import Mapping

from repro.dynamics.vehicle import VehicleLimits
from repro.filtering.fusion import FusedEstimate
from repro.obs.observer import traced_call
from repro.planners.base import PlanningContext
from repro.scenarios.left_turn.geometry import LeftTurnGeometry

__all__ = ["LeftTurnEmergencyPlanner"]


class LeftTurnEmergencyPlanner:
    """Stop before the unsafe area, or escape it at full throttle.

    Parameters
    ----------
    geometry, limits:
        Scenario geometry and ego actuation limits.
    stop_margin:
        Distance before the front line the braking branch targets
        (metres).  The paper's law stops *exactly at* the line; a small
        positive margin keeps the discrete implementation strictly
        outside the (open) unsafe area under floating-point roundoff.
        Eq. (4) is only strengthened by it.
    """

    def __init__(
        self,
        geometry: LeftTurnGeometry,
        limits: VehicleLimits,
        stop_margin: float = 0.05,
    ) -> None:
        if stop_margin < 0.0:
            raise ValueError(f"stop_margin must be >= 0, got {stop_margin}")
        self._geometry = geometry
        self._limits = limits
        self._stop_margin = float(stop_margin)

    @property
    def geometry(self) -> LeftTurnGeometry:
        """The scenario geometry the planner protects."""
        return self._geometry

    @property
    def stop_margin(self) -> float:
        """Target distance before the front line when braking."""
        return self._stop_margin

    def plan(self, context: PlanningContext) -> float:
        """:meth:`plan_floats` on a :class:`PlanningContext`.

        Exists only because ``benchmarks/engine/layers.py`` wraps it by
        name (its ``shield.emergency`` layer); nothing in ``repro`` calls
        it.
        """
        ego = context.ego
        return self.plan_floats(
            context.time, ego.position, ego.velocity, ego.acceleration,
            context.estimates,
        )

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """Apply the (extended) Section-IV emergency law.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]

        The paper's law assumes invocation from the boundary safe set,
        where stopping before the line is feasible.  This implementation
        extends the escape branch to *committed* states — negative slack,
        i.e. entering the area is already unavoidable — where braking
        would only stretch the ego's exposure inside the area: there the
        right move is full throttle, exactly as past the front line.

        The law reads only the ego's position and velocity.  With a
        ``tracer``, the call is timed in a ``shield.emergency`` span.
        """
        if tracer is not None:
            return traced_call(
                tracer, "shield.emergency", self.plan_floats,
                time, position, velocity, acceleration, estimates,
            )
        velocity = max(velocity, 0.0)
        front_gap = self._geometry.ego_distance_to_front(position)
        if front_gap > 0.0:
            braking_distance = (
                -0.5 * velocity * velocity / self._limits.a_min
            )
            if braking_distance > front_gap:
                # Committed (negative slack): escape forward.
                return self._limits.a_max
            if velocity == 0.0:
                return 0.0  # already stopped before the line: hold
            target_gap = front_gap - self._stop_margin
            if target_gap <= 0.0:
                # Inside the margin band: brake as hard as possible.
                return self._limits.a_min
            required = -velocity * velocity / (2.0 * target_gap)
            return self._limits.clip_acceleration(required)
        if front_gap == 0.0:
            # At the line exactly; if still moving, brake as hard as
            # possible (see module docstring).
            return self._limits.a_min if velocity > 0.0 else 0.0
        return self._limits.a_max
