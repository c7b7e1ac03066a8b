"""The scenario protocol the simulation engine is generic over.

A scenario bundles everything that is specific to one traffic situation:
the vehicles (limits, initial states, behaviour profiles of the non-ego
vehicles), the ground-truth collision and target predicates used by the
evaluation, and the safety model / emergency planner pair the compound
planner needs.  The engine, runner and experiment harness only speak this
protocol, which is what lets the same framework drive both the left-turn
case study and the car-following extension.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.core.unsafe_set import SafetyModel
from repro.dynamics.profiles import AccelerationProfile
from repro.dynamics.state import SystemState
from repro.dynamics.vehicle import VehicleLimits
from repro.planners.base import Planner
from repro.utils.rng import RngStream

__all__ = ["Scenario"]


@runtime_checkable
class Scenario(Protocol):
    """Everything the engine needs to simulate one traffic situation."""

    @property
    def n_vehicles(self) -> int:
        """Number of vehicles, ego included (index 0 is the ego)."""
        ...

    @property
    def dt_c(self) -> float:
        """Control period; the safety model's margin depends on it."""
        ...

    def vehicle_limits(self, index: int) -> VehicleLimits:
        """Physical limits of vehicle ``index``."""
        ...

    def initial_state(self, rng: RngStream) -> SystemState:
        """Draw the initial joint state for one simulation."""
        ...

    def profile_for(self, index: int, rng: RngStream) -> AccelerationProfile:
        """Behaviour profile of non-ego vehicle ``index`` for one run."""
        ...

    def is_collision(self, state: SystemState) -> bool:
        """Ground-truth unsafe-set membership (true states)."""
        ...

    def reached_target(self, state: SystemState) -> bool:
        """Ground-truth target-set membership."""
        ...

    def is_collision_at(self, time: float, positions: Sequence[float]) -> bool:
        """:meth:`is_collision` of the state at ``time`` with these positions.

        Units: time [s], positions [m]

        ``positions`` holds every vehicle's position in index order.  The
        engine's terminal check: it keeps the state as floats and builds
        no :class:`~repro.dynamics.state.SystemState`.
        """
        ...

    def reached_target_at(self, time: float, positions: Sequence[float]) -> bool:
        """:meth:`reached_target` of the state at ``time`` with these positions.

        Units: time [s], positions [m]
        """
        ...

    def safety_model(self) -> SafetyModel:
        """The conservative safety model for the runtime monitor."""
        ...

    def emergency_planner(self) -> Planner:
        """The scenario's emergency planner (must satisfy Eq. (4))."""
        ...
