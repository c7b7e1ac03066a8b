"""Left turn against *several* oncoming vehicles.

The paper's system model (Section II-A) is n-vehicle, but its case study
instantiates a single oncoming car.  This module extends the case study
to a platoon of oncoming vehicles, exercising the parts of the framework
the single-vehicle study cannot:

* the safety model composes per-vehicle decisions — the ego is in the
  (estimated) unsafe/boundary set iff it is with respect to *any*
  oncoming vehicle, which is sound because the emergency planner's
  actions (stop before the line / floor it out) are safe per vehicle
  and conjunctively safe;
* the expert's GO decision becomes *gap acceptance*: the ego's planned
  full-throttle crossing interval must fit between the merged conflict
  windows of the platoon.

One estimator/channel/sensor per oncoming vehicle falls out of the
engine for free (it is already per-vehicle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.unsafe_set import SafetyModel
from repro.dynamics.profiles import AccelerationProfile, RandomSequenceProfile
from repro.dynamics.state import SystemState, VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import Planner
from repro.planners.expert import ExpertConfig
from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
from repro.scenarios.left_turn.geometry import (
    LeftTurnGeometry,
    earliest_arrival_time,
)
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.scenarios.left_turn.scenario import (
    DEFAULT_EGO_LIMITS,
    DEFAULT_ONCOMING_LIMITS,
)
from repro.scenarios.left_turn.unsafe_set import LeftTurnSafetyModel, slack
from repro.utils.intervals import Interval
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = [
    "merge_windows",
    "MultiOncomingSafetyModel",
    "MultiOncomingLeftTurnScenario",
    "GapAcceptanceExpert",
]


def merge_windows(windows: Sequence[Interval]) -> List[Interval]:
    """Merge possibly overlapping windows into disjoint sorted intervals.

    Empty windows are dropped; touching windows are merged (a gap of
    zero width cannot be crossed through).
    """
    live = sorted(
        (w for w in windows if not w.is_empty), key=lambda w: w.lo
    )
    merged: List[Interval] = []
    for window in live:
        if merged and window.lo <= merged[-1].hi:
            merged[-1] = merged[-1].hull(window)
        else:
            merged.append(window)
    return merged


@dataclass(frozen=True)
class MultiOncomingSafetyModel:
    """Disjunction of per-vehicle left-turn safety models.

    The ego is one step from danger if it is one step from danger with
    respect to *any* oncoming vehicle.  Soundness of the composition:
    the emergency planner's braking branch is vehicle-independent (it
    only involves the ego and the front line), and its escape branch
    (full throttle) preserves the per-vehicle commit invariant for every
    vehicle simultaneously, so ORing the triggers never creates
    conflicting obligations.
    """

    geometry: LeftTurnGeometry
    ego_limits: VehicleLimits
    oncoming_limits: VehicleLimits
    dt_c: float
    oncoming_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        check_positive(self.dt_c, "dt_c")
        if not self.oncoming_indices:
            raise ScenarioError("at least one oncoming vehicle required")
        per_vehicle = tuple(
            LeftTurnSafetyModel(
                geometry=self.geometry,
                ego_limits=self.ego_limits,
                oncoming_limits=self.oncoming_limits,
                dt_c=self.dt_c,
                oncoming_index=index,
            )
            for index in self.oncoming_indices
        )
        object.__setattr__(self, "_models", per_vehicle)

    def decide(
        self,
        time: float,
        position: float,
        velocity: float,
        estimates: Mapping[int, FusedEstimate],
    ) -> Tuple[bool, bool, Optional[Tuple[float, float]]]:
        """``(in_boundary, in_unsafe, None)``: the OR of the per-vehicle decisions.

        Units: time [s], position [m], velocity [m/s]

        Vehicles are asked in index order, and only while an answer can
        still change: once some vehicle puts the ego in the boundary set,
        the rest are asked only for the unsafe set, which is empty at
        nonnegative slack.  So a vehicle without an estimate raises
        exactly when its own membership is needed.  No single window is
        returned.
        """
        negative_slack = slack(position, velocity, self.geometry, self.ego_limits) < 0.0
        in_boundary = in_unsafe = False
        for model in self._models:
            if in_boundary and (in_unsafe or not negative_slack):
                break
            boundary, unsafe, _ = model.decide(time, position, velocity, estimates)
            in_boundary = in_boundary or boundary
            in_unsafe = in_unsafe or unsafe
        return in_boundary, in_unsafe, None


class GapAcceptanceExpert:
    """GO/YIELD against a platoon: fit the crossing into a gap.

    The GO predicate plans a full-throttle crossing starting now —
    occupying the area over ``[t + t_reach, t + t_clear]`` — pads it
    with ``entry_margin`` and accepts iff the padded interval is
    disjoint from every merged conflict window.  For one oncoming
    vehicle this reduces exactly to the single-vehicle expert's
    go-before / anticipatory-go disjunction.

    Yielding reuses the single-vehicle approach law against the first
    future merged window.
    """

    def __init__(
        self,
        geometry: LeftTurnGeometry,
        limits: VehicleLimits,
        window_estimator: PassingWindowEstimator,
        config: ExpertConfig,
        oncoming_indices: Sequence[int],
    ) -> None:
        from repro.planners.expert import LeftTurnExpertPlanner

        if not oncoming_indices:
            raise ScenarioError("at least one oncoming vehicle required")
        self._geometry = geometry
        self._limits = limits
        self._windows = window_estimator
        self._config = config
        self._indices = tuple(oncoming_indices)
        # Reuse the single-vehicle expert for the yield law.
        self._single = LeftTurnExpertPlanner(
            geometry=geometry,
            limits=limits,
            window_estimator=window_estimator,
            config=config,
        )

    @property
    def config(self) -> ExpertConfig:
        """Behaviour parameters."""
        return self._config

    def merged_conflicts(
        self, estimates: Mapping[int, FusedEstimate]
    ) -> List[Interval]:
        """The platoon's merged conflict windows."""
        return merge_windows(
            [self._windows.window(estimates[i]) for i in self._indices]
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
        """One gap-acceptance decision.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]
        """
        merged = self.merged_conflicts(estimates)
        velocity = max(velocity, 0.0)

        if position > self._geometry.p_front:
            # Committed/inside: keep going (the monitor guards).
            return self._go(velocity)

        future = [w for w in merged if w.hi > time]
        if not future or self._gap_fits(time, position, velocity, future):
            return self._go(velocity)

        # Yield toward the line, pacing off the first future window.
        return self._single.plan_from_window(
            time, position, velocity, future[0]
        )

    # ------------------------------------------------------------------
    def _gap_fits(
        self,
        time: float,
        position: float,
        velocity: float,
        future: Sequence[Interval],
    ) -> bool:
        d_front = self._geometry.ego_distance_to_front(position)
        d_back = self._geometry.ego_distance_to_back(position)
        t_reach = earliest_arrival_time(
            d_front, velocity, self._limits.v_max, self._config.go_accel
        )
        t_clear = earliest_arrival_time(
            d_back, velocity, self._limits.v_max, self._config.go_accel
        )
        crossing = Interval(
            time + t_reach, time + t_clear + self._config.entry_margin
        )
        return not any(crossing.overlaps(w) for w in future)

    def _go(self, velocity: float) -> float:
        cap = min(self._config.cruise_speed, self._limits.v_max)
        if velocity >= cap:
            return 0.0
        return self._config.go_accel


@dataclass(frozen=True)
class MultiOncomingLeftTurnScenario:
    """Unprotected left turn against a platoon of oncoming vehicles.

    Vehicles 1..n are staggered ``spacing`` metres apart behind the
    lead vehicle's sampled start position, each driving its own random
    acceleration sequence.
    """

    n_oncoming: int = 2
    spacing: float = 25.0
    geometry: LeftTurnGeometry = field(default_factory=LeftTurnGeometry)
    ego_limits: VehicleLimits = DEFAULT_EGO_LIMITS
    oncoming_limits: VehicleLimits = DEFAULT_ONCOMING_LIMITS
    dt_c: float = 0.05
    ego_start: Tuple[float, float] = (-30.0, 10.0)
    lead_start_positions: Tuple[float, ...] = tuple(
        50.5 + 0.5 * j for j in range(20)
    )
    oncoming_start_speed_range: Tuple[float, float] = (9.0, 14.0)
    profile_accel_range: Tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self) -> None:
        if self.n_oncoming < 1:
            raise ScenarioError("n_oncoming must be >= 1")
        check_positive(self.spacing, "spacing")
        check_positive(self.dt_c, "dt_c")

    # ------------------------------------------------------------------
    # Scenario protocol
    # ------------------------------------------------------------------
    @property
    def n_vehicles(self) -> int:
        """Ego plus the platoon."""
        return 1 + self.n_oncoming

    @property
    def oncoming_indices(self) -> Tuple[int, ...]:
        """Vehicle indices of the platoon."""
        return tuple(range(1, self.n_vehicles))

    def vehicle_limits(self, index: int) -> VehicleLimits:
        """Ego limits for index 0, shared oncoming limits otherwise."""
        if index == 0:
            return self.ego_limits
        if 1 <= index < self.n_vehicles:
            return self.oncoming_limits
        raise ScenarioError(f"no vehicle with index {index}")

    def initial_state(self, rng: RngStream) -> SystemState:
        """Lead start from the paper's pool; followers staggered behind."""
        lead = float(rng.choice(list(self.lead_start_positions)))
        vehicles = [
            VehicleState(
                position=self.ego_start[0], velocity=self.ego_start[1]
            )
        ]
        for k in range(self.n_oncoming):
            speed = float(rng.uniform(*self.oncoming_start_speed_range))
            vehicles.append(
                VehicleState(
                    position=lead + k * self.spacing, velocity=-speed
                )
            )
        return SystemState(time=0.0, vehicles=tuple(vehicles))

    def profile_for(self, index: int, rng: RngStream) -> AccelerationProfile:
        """Independent random acceleration sequence per platoon member."""
        if not 1 <= index < self.n_vehicles:
            raise ScenarioError(f"vehicle {index} has no behaviour profile")
        lo, hi = self.profile_accel_range
        return RandomSequenceProfile(rng, a_low=lo, a_high=hi)

    def is_collision_at(self, time: float, positions: Sequence[float]) -> bool:
        """The ego shares the area with any platoon member.

        Units: time [s], positions [m]
        """
        if not self.geometry.ego_inside(positions[0]):
            return False
        return any(
            self.geometry.oncoming_inside(positions[i])
            for i in self.oncoming_indices
        )

    def reached_target_at(self, time: float, positions: Sequence[float]) -> bool:
        """The ego completed the turn.

        Units: time [s], positions [m]
        """
        return self.geometry.ego_reached_target(positions[0])

    def safety_model(self) -> SafetyModel:
        """The disjunctive per-vehicle safety model."""
        return MultiOncomingSafetyModel(
            geometry=self.geometry,
            ego_limits=self.ego_limits,
            oncoming_limits=self.oncoming_limits,
            dt_c=self.dt_c,
            oncoming_indices=self.oncoming_indices,
        )

    def emergency_planner(self) -> Planner:
        """The (vehicle-independent) Section-IV emergency planner."""
        return LeftTurnEmergencyPlanner(self.geometry, self.ego_limits)

    def gap_expert(
        self, aggressive: bool = False, config: ExpertConfig | None = None
    ) -> GapAcceptanceExpert:
        """A ready-made gap-acceptance expert for this platoon."""
        estimator = PassingWindowEstimator(
            geometry=self.geometry,
            limits=self.oncoming_limits,
            aggressive=aggressive,
        )
        if config is None:
            config = (
                ExpertConfig.aggressive()
                if aggressive
                else ExpertConfig.conservative()
            )
        return GapAcceptanceExpert(
            geometry=self.geometry,
            limits=self.ego_limits,
            window_estimator=estimator,
            config=config,
            oncoming_indices=self.oncoming_indices,
        )
