"""The complete unprotected-left-turn scenario object.

Wires the geometry, safety model and emergency planner of Section IV into
the :class:`repro.scenarios.base.Scenario` protocol, with the paper's
experimental initial conditions: the ego starts 30 m before the unsafe
area; the oncoming vehicle starts at a position drawn from
``{50.5 + 0.5 j | j = 0..19}`` (approaching, so with negative raw
velocity) and follows a random acceleration sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.core.unsafe_set import SafetyModel
from repro.dynamics.profiles import AccelerationProfile, RandomSequenceProfile
from repro.dynamics.state import SystemState, VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ScenarioError
from repro.planners.base import Planner
from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
from repro.scenarios.left_turn.geometry import LeftTurnGeometry
from repro.scenarios.left_turn.unsafe_set import LeftTurnSafetyModel
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = ["LeftTurnScenario", "DEFAULT_EGO_LIMITS", "DEFAULT_ONCOMING_LIMITS"]

#: Ego limits used throughout the experiments: 20 m/s cap, 4 m/s² throttle,
#: 6 m/s² emergency braking.
DEFAULT_EGO_LIMITS = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)

#: Oncoming-vehicle limits in *raw* coordinates (it travels toward
#: decreasing positions, so raw velocity lies in [-v_speed_max,
#: -v_speed_min]).  Speed between 2 and 20 m/s, |accel| up to 3 m/s².
DEFAULT_ONCOMING_LIMITS = VehicleLimits(
    v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0
)


@dataclass(frozen=True)
class LeftTurnScenario:
    """Two-vehicle unprotected left turn per the paper's experiments.

    Attributes
    ----------
    geometry:
        Unsafe-area geometry (paper: area at ``[5, 15]`` m, target at
        20 m).
    ego_limits, oncoming_limits:
        Physical limits; the oncoming limits are in raw (decreasing-
        coordinate) form.
    dt_c:
        Control period (fixes the boundary-set margin).
    ego_start:
        Ego initial ``(position, velocity)``; the paper starts at
        ``-30 m`` (initial speed unreported; 10 m/s makes crossing
        *before* the oncoming vehicle kinematically feasible when that
        vehicle starts far and slow, which is the efficiency lever the
        aggressive unsafe-set estimation exploits).
    oncoming_start_positions:
        The pool the oncoming initial position is drawn from (paper:
        ``{50.5 + 0.5 j}``).
    oncoming_start_speed_range:
        Range the initial approach speed is drawn from (m/s, positive =
        toward the area).  The paper does not report the initial speed;
        a moderate urban range keeps the passing time genuinely
        uncertain across simulations.
    profile_accel_range:
        Bounds of the random acceleration sequence driving the oncoming
        vehicle (raw coordinates; must stay within its limits for the
        conservative window to be sound).
    """

    geometry: LeftTurnGeometry = field(default_factory=LeftTurnGeometry)
    ego_limits: VehicleLimits = DEFAULT_EGO_LIMITS
    oncoming_limits: VehicleLimits = DEFAULT_ONCOMING_LIMITS
    dt_c: float = 0.05
    ego_start: Tuple[float, float] = (-30.0, 10.0)
    oncoming_start_positions: Tuple[float, ...] = tuple(
        50.5 + 0.5 * j for j in range(20)
    )
    oncoming_start_speed_range: Tuple[float, float] = (9.0, 14.0)
    profile_accel_range: Tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self) -> None:
        check_positive(self.dt_c, "dt_c")
        if not self.oncoming_start_positions:
            raise ScenarioError("oncoming_start_positions must be non-empty")
        lo, hi = self.profile_accel_range
        if lo < self.oncoming_limits.a_min or hi > self.oncoming_limits.a_max:
            raise ScenarioError(
                "profile_accel_range must lie within the oncoming limits "
                "(otherwise the conservative window is unsound)"
            )
        speed_lo, speed_hi = self.oncoming_start_speed_range
        if speed_lo > speed_hi:
            raise ScenarioError("oncoming_start_speed_range must be ordered")
        for speed in (speed_lo, speed_hi):
            if not (
                -self.oncoming_limits.v_max <= speed <= -self.oncoming_limits.v_min
            ):
                raise ScenarioError(
                    f"oncoming start speed {speed} outside the physical "
                    f"range [{-self.oncoming_limits.v_max}, "
                    f"{-self.oncoming_limits.v_min}]"
                )

    # ------------------------------------------------------------------
    # Scenario protocol
    # ------------------------------------------------------------------
    @property
    def n_vehicles(self) -> int:
        """Two: the ego and the oncoming vehicle."""
        return 2

    def vehicle_limits(self, index: int) -> VehicleLimits:
        """Ego limits for index 0, oncoming limits for index 1."""
        if index == 0:
            return self.ego_limits
        if index == 1:
            return self.oncoming_limits
        raise ScenarioError(f"no vehicle with index {index}")

    def initial_state(self, rng: RngStream) -> SystemState:
        """Ego at its fixed start; oncoming position drawn from the pool."""
        p1 = float(rng.choice(list(self.oncoming_start_positions)))
        speed = float(rng.uniform(*self.oncoming_start_speed_range))
        ego = VehicleState(
            position=self.ego_start[0], velocity=self.ego_start[1]
        )
        oncoming = VehicleState(position=p1, velocity=-speed)
        return SystemState(time=0.0, vehicles=(ego, oncoming))

    def profile_for(self, index: int, rng: RngStream) -> AccelerationProfile:
        """The paper's random acceleration sequence for the oncoming car."""
        if index != 1:
            raise ScenarioError(f"vehicle {index} has no behaviour profile")
        lo, hi = self.profile_accel_range
        return RandomSequenceProfile(rng, a_low=lo, a_high=hi)

    def is_collision(self, state: SystemState) -> bool:
        """Both vehicles inside the unsafe area (the paper's ground truth)."""
        return self.is_collision_at(state.time, state.positions)

    def reached_target(self, state: SystemState) -> bool:
        """The ego crossed the target line (left turn completed)."""
        return self.reached_target_at(state.time, state.positions)

    def is_collision_at(self, time: float, positions: Sequence[float]) -> bool:
        """:meth:`is_collision` on the vehicles' positions.

        Units: time [s], positions [m]
        """
        return self.geometry.collision(positions[0], positions[1])

    def reached_target_at(self, time: float, positions: Sequence[float]) -> bool:
        """:meth:`reached_target` on the vehicles' positions.

        Units: time [s], positions [m]
        """
        return self.geometry.ego_reached_target(positions[0])

    def safety_model(self) -> SafetyModel:
        """Conservative safety model for the runtime monitor."""
        return LeftTurnSafetyModel(
            geometry=self.geometry,
            ego_limits=self.ego_limits,
            oncoming_limits=self.oncoming_limits,
            dt_c=self.dt_c,
        )

    def emergency_planner(self) -> Planner:
        """The Section-IV emergency planner."""
        return LeftTurnEmergencyPlanner(self.geometry, self.ego_limits)
