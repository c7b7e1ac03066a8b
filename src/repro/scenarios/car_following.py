"""Car-following scenario: the paper's Section II gap-keeping example.

The paper introduces the unsafe set with a car-following example:
``X_u = {x | |p_0 - p_i| < p_gap}`` — the ego must keep a minimum gap to
the vehicle ahead.  This module instantiates the full framework on that
scenario, demonstrating that :mod:`repro.core` is generic over safety
models (the claim "applicable to any NN-based planner" extends to any
scenario with a sound safety model and a valid emergency planner).

The safety algebra is the classic braking-envelope argument:

* **slack** — ``gap + v_l^2 / (2 b_l) - v_0^2 / (2 b_e) - p_gap``,
  evaluated against the *worst corner* of the leader's fused band
  (closest position, slowest velocity): nonnegative slack means that
  even if the leader brakes as hard as physics allows, the ego — braking
  at full force — never closes within ``p_gap``;
* **boundary safe set** — slack within one worst-case step (ego at full
  throttle, leader at full brake) of going negative;
* **emergency planner** — full braking, which provably keeps the slack
  nonnegative (the property tests check this against adversarial leader
  behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.unsafe_set import SafetyModel
from repro.dynamics.profiles import AccelerationProfile, RandomWalkProfile
from repro.dynamics.state import SystemState, VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import Planner
from repro.planners.constant import FullBrakePlanner
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = ["CarFollowingScenario", "CarFollowingSafetyModel", "following_slack"]

#: Default limits for both vehicles: highway-ish traffic.
_DEFAULT_EGO = VehicleLimits(v_min=0.0, v_max=30.0, a_min=-6.0, a_max=3.0)
_DEFAULT_LEADER = VehicleLimits(v_min=0.0, v_max=30.0, a_min=-6.0, a_max=3.0)


def following_slack(
    position: float,
    velocity: float,
    leader_position_lo: float,
    leader_velocity_lo: float,
    p_gap: float,
    ego_limits: VehicleLimits,
    leader_limits: VehicleLimits,
) -> float:
    """Braking-envelope slack of the following ego, metres.

    Units: position [m], velocity [m/s], leader_position_lo [m]
    Units: leader_velocity_lo [m/s], p_gap [m] -> [m]

    Uses the pessimistic corner of the leader's band: its closest
    possible position and slowest possible velocity.  Nonnegative slack
    certifies that full ego braking preserves the gap whatever the
    leader does within its physical limits.
    """
    gap = leader_position_lo - position
    v0 = max(velocity, 0.0)
    vl = max(leader_velocity_lo, 0.0)
    ego_stop = v0 * v0 / (-2.0 * ego_limits.a_min)
    leader_stop = vl * vl / (-2.0 * leader_limits.a_min)
    return gap + leader_stop - ego_stop - p_gap


@dataclass(frozen=True)
class CarFollowingSafetyModel:
    """Slack-based safety model over the leader's fused estimate."""

    p_gap: float
    ego_limits: VehicleLimits
    leader_limits: VehicleLimits
    dt_c: float
    leader_index: int = 1

    def __post_init__(self) -> None:
        check_positive(self.p_gap, "p_gap")
        check_positive(self.dt_c, "dt_c")

    def _slack(
        self,
        position: float,
        velocity: float,
        estimates: Mapping[int, FusedEstimate],
    ) -> float:
        """Units: position [m], velocity [m/s] -> [m]"""
        if self.leader_index not in estimates:
            raise ScenarioError(
                f"no estimate for the leader (index {self.leader_index})"
            )
        estimate = estimates[self.leader_index]
        return following_slack(
            position,
            velocity,
            estimate.p_lo,
            estimate.v_lo,
            self.p_gap,
            self.ego_limits,
            self.leader_limits,
        )

    def _margin(self, velocity: float, estimate: FusedEstimate) -> float:
        """Worst one-step slack decrease (ego full throttle, leader full brake).

        Units: velocity [m/s] -> [m]
        """
        dt = self.dt_c
        v0 = max(velocity, 0.0)
        a_max = self.ego_limits.a_max
        b_e = -self.ego_limits.a_min
        # Ego closes the gap and grows its stopping distance.
        ego_travel = v0 * dt + 0.5 * a_max * dt * dt
        ego_stop_growth = (2.0 * v0 * a_max * dt + a_max * a_max * dt * dt) / (
            2.0 * b_e
        )
        # The leader's braking-credit term can shrink by at most v_l * dt.
        leader_credit_loss = max(estimate.v_hi, 0.0) * dt
        return ego_travel + ego_stop_growth + leader_credit_loss

    # ------------------------------------------------------------------
    # Observability hooks (telemetry only — the monitor never calls these)
    # ------------------------------------------------------------------
    def safety_margin(
        self,
        time: float,
        position: float,
        velocity: float,
        estimates: Mapping[int, FusedEstimate],
    ) -> float:
        """The following slack as a scalar safety margin, metres.

        Units: time [s], position [m], velocity [m/s] -> [m]
        """
        return self._slack(position, velocity, estimates)

    def boundary_distance(
        self,
        time: float,
        position: float,
        velocity: float,
        estimates: Mapping[int, FusedEstimate],
    ) -> float:
        """Distance of the slack to the ``X_b`` threshold, metres.

        Units: time [s], position [m], velocity [m/s] -> [m]
        """
        return self._slack(position, velocity, estimates) - self._margin(
            velocity, estimates[self.leader_index]
        )

    # ------------------------------------------------------------------
    # SafetyModel protocol
    # ------------------------------------------------------------------
    def decide(
        self,
        time: float,
        position: float,
        velocity: float,
        estimates: Mapping[int, FusedEstimate],
    ) -> Tuple[bool, bool, Optional[Tuple[float, float]]]:
        """``(in_boundary, in_unsafe, None)`` from the following slack.

        Units: time [s], position [m], velocity [m/s]

        Unsafe: negative slack, the gap can no longer be certified.
        Boundary: negative slack, or slack within one worst-case step
        (ego full throttle, leader full brake) of going negative.  There
        is no conflict window.
        """
        s = self._slack(position, velocity, estimates)
        if s < 0.0:
            return True, True, None
        return s < self._margin(velocity, estimates[self.leader_index]), False, None


@dataclass(frozen=True)
class CarFollowingScenario:
    """Two-vehicle single-lane following task.

    The ego starts ``initial_gap`` behind the leader and must cover
    ``travel_distance`` metres without ever closing within ``p_gap`` of
    the leader, whose speed wanders as a bounded random walk.
    """

    p_gap: float = 5.0
    ego_limits: VehicleLimits = _DEFAULT_EGO
    leader_limits: VehicleLimits = _DEFAULT_LEADER
    dt_c: float = 0.05
    initial_gap: float = 30.0
    ego_start_speed: float = 20.0
    leader_speed_range: Tuple[float, float] = (10.0, 20.0)
    travel_distance: float = 250.0
    #: Leader behaviour: random-walk acceleration bounds.
    leader_accel_range: Tuple[float, float] = (-3.0, 2.0)

    def __post_init__(self) -> None:
        check_positive(self.p_gap, "p_gap")
        check_positive(self.travel_distance, "travel_distance")
        if self.initial_gap <= self.p_gap:
            raise ScenarioError(
                f"initial_gap ({self.initial_gap}) must exceed p_gap "
                f"({self.p_gap})"
            )
        lo, hi = self.leader_accel_range
        if lo < self.leader_limits.a_min or hi > self.leader_limits.a_max:
            raise ScenarioError(
                "leader_accel_range must stay within the leader's limits"
            )

    # ------------------------------------------------------------------
    # Scenario protocol
    # ------------------------------------------------------------------
    @property
    def n_vehicles(self) -> int:
        """Ego plus one leader."""
        return 2

    def vehicle_limits(self, index: int) -> VehicleLimits:
        """Ego limits for 0, leader limits for 1."""
        if index == 0:
            return self.ego_limits
        if index == 1:
            return self.leader_limits
        raise ScenarioError(f"no vehicle with index {index}")

    def initial_state(self, rng: RngStream) -> SystemState:
        """Ego at the origin; leader ``initial_gap`` ahead."""
        leader_speed = float(rng.uniform(*self.leader_speed_range))
        ego = VehicleState(position=0.0, velocity=self.ego_start_speed)
        leader = VehicleState(position=self.initial_gap, velocity=leader_speed)
        return SystemState(time=0.0, vehicles=(ego, leader))

    def profile_for(self, index: int, rng: RngStream) -> AccelerationProfile:
        """Bounded random-walk acceleration for the leader."""
        if index != 1:
            raise ScenarioError(f"vehicle {index} has no behaviour profile")
        lo, hi = self.leader_accel_range
        return RandomWalkProfile(rng, a_low=lo, a_high=hi, max_step=0.4)

    def is_collision_at(self, time: float, positions: Sequence[float]) -> bool:
        """The true gap dropped below ``p_gap``.

        Units: time [s], positions [m]
        """
        gap = positions[1] - positions[0]
        return gap < self.p_gap

    def reached_target_at(self, time: float, positions: Sequence[float]) -> bool:
        """The ego covered the required distance.

        Units: time [s], positions [m]
        """
        return positions[0] >= self.travel_distance

    def safety_model(self) -> SafetyModel:
        """The braking-envelope safety model."""
        return CarFollowingSafetyModel(
            p_gap=self.p_gap,
            ego_limits=self.ego_limits,
            leader_limits=self.leader_limits,
            dt_c=self.dt_c,
        )

    def emergency_planner(self) -> Planner:
        """Full braking (provably slack-preserving)."""
        return FullBrakePlanner(self.ego_limits)
