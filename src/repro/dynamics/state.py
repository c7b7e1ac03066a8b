"""State containers for vehicles and for the whole multi-vehicle system.

The paper's system model (Section II-A) is one-dimensional: each vehicle is
described by a longitudinal position ``p`` and velocity ``v`` along its own
fixed path, driven by an acceleration input ``a``.  The *system state*
``x(t)`` gathers the states of all vehicles at a common timestamp; the
unsafe set and target set of the problem formulation are predicates over
system states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["VehicleState", "SystemState"]

_isnan = math.isnan


@dataclass(frozen=True, slots=True)
class VehicleState:
    """Kinematic state of one vehicle along its path.

    Attributes
    ----------
    position:
        Longitudinal position ``p`` along the vehicle's path, metres.
    velocity:
        Longitudinal velocity ``v``, m/s.
    acceleration:
        The acceleration input ``a`` that was applied (or is being applied)
        over the step ending at this state, m/s².  Carried in the state
        because messages in the paper transmit ``(p, v, a)`` triples and
        the aggressive unsafe-set estimation uses the *current* observed
        acceleration of the other vehicle.

    Units: position [m], velocity [m/s], acceleration [m/s^2]
    """

    position: float
    velocity: float
    acceleration: float = 0.0

    def __post_init__(self) -> None:
        if _isnan(float(self.position)):
            raise ConfigurationError("VehicleState.position must not be NaN")
        if _isnan(float(self.velocity)):
            raise ConfigurationError("VehicleState.velocity must not be NaN")
        if _isnan(float(self.acceleration)):
            raise ConfigurationError("VehicleState.acceleration must not be NaN")

    def as_vector(self) -> np.ndarray:
        """Return the ``[p, v]`` column vector used by the Kalman filter.

        Shapes: -> [2, 1]
        """
        return np.array([[self.position], [self.velocity]], dtype=float)

    def with_acceleration(self, acceleration: float) -> "VehicleState":
        """Return a copy carrying a different acceleration input.

        Units: acceleration [m/s^2]
        """
        return VehicleState(self.position, self.velocity, float(acceleration))

    def shifted(self, dp: float = 0.0, dv: float = 0.0) -> "VehicleState":
        """Return a copy with position/velocity offset (used in tests).

        Units: dp [m], dv [m/s]
        """
        return replace(
            self, position=self.position + dp, velocity=self.velocity + dv
        )

    def __str__(self) -> str:
        return (
            f"p={self.position:.3f}m v={self.velocity:.3f}m/s "
            f"a={self.acceleration:.3f}m/s^2"
        )


@dataclass(frozen=True, slots=True)
class SystemState:
    """Joint state ``x(t)`` of every vehicle at a common timestamp.

    By convention vehicle index 0 is the ego vehicle ``C_0`` and indices
    ``1..n-1`` are the other (connected) vehicles, matching the paper.

    Units: time [s]
    """

    time: float
    vehicles: Tuple[VehicleState, ...]

    def __post_init__(self) -> None:
        if math.isnan(float(self.time)):
            raise ConfigurationError("SystemState.time must not be NaN")
        if not self.vehicles:
            raise ConfigurationError("SystemState requires at least one vehicle")
        object.__setattr__(self, "vehicles", tuple(self.vehicles))

    @classmethod
    def of(
        cls, time: float, vehicles: Sequence[VehicleState]
    ) -> "SystemState":
        """Build a system state from any sequence of vehicle states.

        Units: time [s]
        """
        return cls(time=float(time), vehicles=tuple(vehicles))

    @property
    def ego(self) -> VehicleState:
        """The ego vehicle's state (``C_0``)."""
        return self.vehicles[0]

    @property
    def others(self) -> Tuple[VehicleState, ...]:
        """States of all non-ego vehicles (``C_1 .. C_{n-1}``)."""
        return self.vehicles[1:]

    @property
    def n_vehicles(self) -> int:
        """Number of vehicles in the system."""
        return len(self.vehicles)

    def vehicle(self, index: int) -> VehicleState:
        """State of vehicle ``index`` (0 is the ego)."""
        return self.vehicles[index]

    def with_vehicle(self, index: int, state: VehicleState) -> "SystemState":
        """Return a copy in which vehicle ``index`` has the given state."""
        vehicles = list(self.vehicles)
        vehicles[index] = state
        return SystemState(time=self.time, vehicles=tuple(vehicles))

    def with_time(self, time: float) -> "SystemState":
        """Return a copy stamped with a different time.

        Units: time [s]
        """
        return SystemState(time=float(time), vehicles=self.vehicles)

    def __iter__(self) -> Iterator[VehicleState]:
        return iter(self.vehicles)

    def __str__(self) -> str:
        parts = ", ".join(f"C{i}({v})" for i, v in enumerate(self.vehicles))
        return f"t={self.time:.3f}s: {parts}"
