"""Trivial planners: constant command, full brake, full throttle.

Used as test fixtures, as degenerate baselines, and as building blocks
(the left-turn emergency planner's "escape" branch is full throttle).
"""

from __future__ import annotations

from typing import Mapping

from repro.dynamics.vehicle import VehicleLimits
from repro.filtering.fusion import FusedEstimate

__all__ = ["ConstantPlanner", "FullBrakePlanner", "FullThrottlePlanner"]


class ConstantPlanner:
    """Always command the same acceleration."""

    def __init__(self, acceleration: float) -> None:
        self._acceleration = float(acceleration)

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """Return the fixed acceleration, whatever the ego's floats.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]

        Deliberately unclamped: tests use out-of-range commands to
        exercise the engine's own sanitisation, so this fixture must
        not pre-clip them.
        """
        return self._acceleration  # safelint: disable=SFL007 - fixture


class FullBrakePlanner:
    """Always command the strongest braking the vehicle supports."""

    def __init__(self, limits: VehicleLimits) -> None:
        self._limits = limits

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """Return the strongest braking command.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]
        """
        return self._limits.a_min


class FullThrottlePlanner:
    """Always command the strongest acceleration the vehicle supports."""

    def __init__(self, limits: VehicleLimits) -> None:
        self._limits = limits

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """Return the strongest acceleration command.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]
        """
        return self._limits.a_max
