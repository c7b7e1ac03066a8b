"""The planner protocol and shared helpers.

A planner (Section II-A, "Planner") maps the information available at a
timestamp to the ego's acceleration command:
``a_0(t) = kappa(x(t))``.  In this library the "state" a planner sees is
the ego's own (exactly known) time, position, velocity and acceleration
as floats plus the fused estimates of the other vehicles, because under
communication disturbance nobody has the true joint state.

Planners are deliberately *pure* per step: all memory lives in the
estimators and the simulation engine, so a planner instance can be shared
across simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, runtime_checkable

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import PlannerError
from repro.filtering.fusion import FusedEstimate

__all__ = [
    "PlanningContext",
    "Planner",
    "FloatEntry",
    "clipped",
    "no_estimate_error",
]


def no_estimate_error(index: int) -> PlannerError:
    """The error a planner raises when vehicle ``index`` has no estimate."""
    return PlannerError(f"no estimate available for vehicle {index}")


@dataclass(frozen=True)
class PlanningContext:
    """Everything a planner may consult at one control step, as one object.

    The argument of :meth:`~repro.planners.nn_planner.NNPlanner.plan`,
    :meth:`~repro.scenarios.left_turn.emergency.LeftTurnEmergencyPlanner.plan`
    and :meth:`~repro.core.monitor.RuntimeMonitor.evaluate`, which exist
    because ``benchmarks/engine/layers.py`` wraps them by name; planners
    are called through ``plan_floats``.

    Attributes
    ----------
    time:
        Current timestamp ``t``.
    ego:
        The ego vehicle's own state (assumed exactly known — the ego
        knows itself).
    estimates:
        Fused estimates of the other vehicles, keyed by vehicle index.
    """

    time: float
    ego: VehicleState
    estimates: Mapping[int, FusedEstimate] = field(default_factory=dict)

    def estimate_of(self, index: int) -> FusedEstimate:
        """The estimate of vehicle ``index``.

        Raises
        ------
        PlannerError
            If no estimate for that vehicle is available.
        """
        try:
            return self.estimates[index]
        except KeyError as exc:
            raise no_estimate_error(index) from exc


@runtime_checkable
class Planner(Protocol):
    """Protocol every planner implements: one float entry point.

    A planner that is a layer of its own (the NN and the left-turn
    emergency planner) times itself in a span on ``tracer`` when one is
    given; a wrapper passes the tracer on, and the other planners ignore
    it.  A planner that reads one vehicle's estimate and was not given it
    raises :func:`no_estimate_error`'s :class:`~repro.errors.PlannerError`,
    which the compound planner contains.
    """

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """Return the ego acceleration command for the coming step.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]
        """
        ...


_INF = math.inf

#: A planner's float entry point: ``(time, position, velocity,
#: acceleration, estimates, tracer=None) -> command``.
FloatEntry = Callable[..., float]


def clipped(acceleration: float, limits: VehicleLimits) -> float:
    """Sanitize a planner output: reject non-finite values, clip to limits.

    Units: acceleration [m/s^2] -> [m/s^2]

    The compound planner applies this to the embedded NN planner's raw
    output so that a pathological network (NaN/inf) degrades to a bounded
    command instead of corrupting the simulation.  A NaN maps to full
    braking — the conservative default.
    """
    a = float(acceleration)
    if not a <= _INF:  # NaN fails every comparison
        return limits.a_min
    # limits.clip_acceleration(a) written out; it takes +-inf to the limits.
    a_min = limits.a_min
    a = a_min if a_min > a else a
    a_max = limits.a_max
    return a_max if a_max < a else a
