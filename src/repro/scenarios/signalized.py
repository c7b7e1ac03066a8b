"""Signalized intersection crossing: a deterministic-window scenario.

Third instantiation of the framework, complementing the left turn
(estimated windows from a moving vehicle) and car following (continuous
gap envelope): here the unsafe "window" is the traffic light's **red
phase**, a deterministic periodic schedule known exactly in advance —
no messages, no sensors, no estimation.  The ego must never occupy the
intersection box while the light is red.

What this exercises that the other scenarios cannot:

* a single-vehicle system (the engine's ``others`` set is empty and the
  planners are given no estimates);
* a safety model whose conflict window comes from the *environment
  schedule* rather than fused estimates — the monitor algebra (slack,
  one-step lookahead, the full-throttle commit invariant) is reused
  verbatim from the left turn by overriding one method;
* green-wave speed advisory (GLOSA) as the embedded planner archetype,
  with a naive red-light runner as the unsafe baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Tuple

from repro.core.unsafe_set import SafetyModel
from repro.dynamics.profiles import AccelerationProfile
from repro.dynamics.state import SystemState, VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import Planner
from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
from repro.scenarios.left_turn.geometry import (
    LeftTurnGeometry,
    earliest_arrival_time,
)
from repro.scenarios.left_turn.unsafe_set import LeftTurnSafetyModel
from repro.utils.intervals import nan_bounds_error
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = [
    "TrafficLight",
    "SignalizedSafetyModel",
    "SignalizedCrossingScenario",
    "GreenWavePlanner",
    "RedLightRunner",
]


@dataclass(frozen=True, slots=True)
class TrafficLight:
    """A fixed-cycle light: green for ``green``, red for ``red``.

    The cycle starts (greens) at ``offset``; before ``offset`` the light
    is treated as red (the intersection is not yet released).

    Units: green [s], red [s], offset [s]
    """

    green: float
    red: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.green, "green")
        check_positive(self.red, "red")

    @property
    def cycle(self) -> float:
        """Full cycle length.

        Units: -> [s]
        """
        return self.green + self.red

    def is_green(self, time: float) -> bool:
        """Whether the light shows green at ``time``.

        Units: time [s]
        """
        phase = time - self.offset
        if phase < 0.0:
            return False
        return (phase % self.cycle) < self.green

    def next_red_bounds(self, time: float) -> Tuple[float, float]:
        """The first red interval not fully passed at ``time``, as floats.

        Returns absolute ``(start, end)`` times; the pre-``offset`` red is
        ``(-inf, offset)``.

        Units: time [s] -> [s]
        """
        if time < self.offset:
            lo, hi = -math.inf, self.offset
        else:
            # Whether the light is green now or this red is under way,
            # the red phase of the current cycle is the one not passed.
            phase = (time - self.offset) % self.cycle
            cycle_start = time - phase
            lo = cycle_start + self.green
            hi = cycle_start + self.cycle
        if math.isnan(lo) or math.isnan(hi):
            raise nan_bounds_error(lo, hi)
        return lo, hi

    def next_green_start(self, time: float) -> float:
        """When the current/next green phase begins (at or before ``time``
        if the light is green now).

        Units: time [s] -> [s]
        """
        if time < self.offset:
            return self.offset
        phase = (time - self.offset) % self.cycle
        cycle_start = time - phase
        if phase < self.green:
            return cycle_start
        return cycle_start + self.cycle

    def green_end_after(self, green_start: float) -> float:
        """The end of the green phase starting at ``green_start``.

        Units: green_start [s] -> [s]
        """
        return green_start + self.green


@dataclass(frozen=True)
class SignalizedSafetyModel(LeftTurnSafetyModel):
    """The left-turn monitor algebra with the light's red as the window.

    Overrides :meth:`~LeftTurnSafetyModel.oncoming_bounds`, the one
    override point of the left-turn ``decide``, to return the next red
    interval (a deterministic schedule, ignoring estimates entirely).
    Everything else — slack band, one-step lookahead, the full-throttle
    commit invariant — is inherited unchanged, which is the point: the
    monitor is generic over where the conflict window comes from.
    """

    light: TrafficLight = field(
        default_factory=lambda: TrafficLight(green=6.0, red=8.0)
    )

    def oncoming_bounds(
        self, time: float, estimates: Mapping[int, FusedEstimate]
    ) -> Tuple[float, float]:
        """The next red interval — no estimates involved.

        Units: time [s] -> [s]
        """
        del estimates
        return self.light.next_red_bounds(time)


class GreenWavePlanner:
    """GLOSA-style speed advisory: arrive at the line on green.

    Picks the earliest green phase in which the ego can both arrive at
    the stop line and clear the intersection box before the red, then
    paces its approach to hit that phase; crosses at ``go_accel`` once
    committed to a feasible green.
    """

    def __init__(
        self,
        geometry: LeftTurnGeometry,
        light: TrafficLight,
        limits: VehicleLimits,
        cruise_speed: float = 12.0,
        go_accel: float = 2.5,
        clear_margin: float = 0.5,
        gain: float = 1.5,
    ) -> None:
        check_positive(cruise_speed, "cruise_speed")
        check_positive(go_accel, "go_accel")
        check_positive(gain, "gain")
        self._geometry = geometry
        self._light = light
        self._limits = limits
        self._cruise = cruise_speed
        self._go_accel = go_accel
        self._margin = float(clear_margin)
        self._gain = gain

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """One speed-advisory decision.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]
        """
        v = max(velocity, 0.0)
        geometry = self._geometry
        if position > geometry.p_front:
            return self._go(v)  # committed/inside: clear the box

        d_front = geometry.ego_distance_to_front(position)
        d_back = geometry.ego_distance_to_back(position)
        t_reach = earliest_arrival_time(
            d_front, v, self._limits.v_max, self._go_accel
        )
        t_clear = earliest_arrival_time(
            d_back, v, self._limits.v_max, self._go_accel
        )

        # Find the first green phase that fits the crossing.
        green_start = self._light.next_green_start(time)
        for _ in range(8):
            green_end = self._light.green_end_after(green_start)
            arrival = max(time + t_reach, green_start)
            crossing_time = t_clear - t_reach
            if arrival + crossing_time + self._margin <= green_end:
                break
            green_start += self._light.cycle
        else:  # pragma: no cover - a feasible phase always exists
            green_start = self._light.next_green_start(time) + self._light.cycle
            arrival = green_start

        if arrival <= time + t_reach + 1e-9:
            # The chosen green is open on arrival: commit and cross.
            return self._go(v)

        # Pace: target the speed that arrives exactly at the green start.
        time_budget = green_start - time
        v_target = min(self._cruise, d_front / max(time_budget, 1e-6))
        # Never exceed the speed from which a comfortable stop at the
        # line is possible (the light is red when we would arrive early).
        v_safe = math.sqrt(2.0 * 2.5 * max(d_front - 1.0, 0.0))
        command = self._gain * (min(v_target, v_safe) - v)
        return self._limits.clip_acceleration(min(command, self._go_accel))

    def _go(self, velocity: float) -> float:
        cap = min(self._limits.v_max, max(self._cruise, 8.0))
        if velocity >= cap:
            return 0.0
        return self._go_accel


class RedLightRunner:
    """The unsafe baseline: cruise at a fixed speed, ignore the light."""

    def __init__(self, limits: VehicleLimits, speed: float = 12.0) -> None:
        check_positive(speed, "speed")
        self._limits = limits
        self._speed = speed

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """Track the fixed cruise speed regardless of the light.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]
        """
        return self._limits.clip_acceleration(
            1.5 * (self._speed - max(velocity, 0.0))
        )


@dataclass(frozen=True)
class SignalizedCrossingScenario:
    """Single vehicle crossing a signalized intersection box.

    The ego must cross the box (``[p_front, p_back]`` of ``geometry``)
    without ever being inside it during a red phase; the target is the
    geometry's ``p_target``.  The scenario itself is deterministic;
    vary the light's phase via :meth:`with_offset` to build a batch of
    episodes that differ in how much waiting the schedule forces.
    """

    geometry: LeftTurnGeometry = field(
        default_factory=lambda: LeftTurnGeometry(
            p_front=5.0, p_back=15.0, p_target=25.0
        )
    )
    light: TrafficLight = field(
        default_factory=lambda: TrafficLight(green=6.0, red=8.0)
    )
    ego_limits: VehicleLimits = VehicleLimits(
        v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0
    )
    dt_c: float = 0.05
    ego_start: Tuple[float, float] = (-40.0, 10.0)

    def __post_init__(self) -> None:
        check_positive(self.dt_c, "dt_c")

    def with_offset(self, offset: float) -> "SignalizedCrossingScenario":
        """A copy whose light cycle is shifted by ``offset`` seconds."""
        from dataclasses import replace

        return replace(
            self,
            light=TrafficLight(
                green=self.light.green,
                red=self.light.red,
                offset=float(offset),
            ),
        )

    # ------------------------------------------------------------------
    # Scenario protocol (single-vehicle)
    # ------------------------------------------------------------------
    @property
    def n_vehicles(self) -> int:
        """Just the ego; the adversary is the schedule."""
        return 1

    def vehicle_limits(self, index: int) -> VehicleLimits:
        """Only index 0 exists."""
        if index != 0:
            raise ScenarioError(f"no vehicle with index {index}")
        return self.ego_limits

    def initial_state(self, rng: RngStream) -> SystemState:
        """The fixed ego start (the scenario itself is deterministic)."""
        del rng
        ego = VehicleState(
            position=self.ego_start[0], velocity=self.ego_start[1]
        )
        return SystemState(time=0.0, vehicles=(ego,))

    def profile_for(self, index: int, rng: RngStream) -> AccelerationProfile:
        """No other vehicles exist."""
        raise ScenarioError(f"vehicle {index} has no behaviour profile")

    def is_collision_at(self, time: float, positions: Sequence[float]) -> bool:
        """Red-light violation: inside the box while the light is red.

        Units: time [s], positions [m]
        """
        return self.geometry.ego_inside(positions[0]) and not self.light.is_green(
            time
        )

    def reached_target_at(self, time: float, positions: Sequence[float]) -> bool:
        """The ego crossed the target line.

        Units: time [s], positions [m]
        """
        return self.geometry.ego_reached_target(positions[0])

    def safety_model(self) -> SafetyModel:
        """Monitor over the deterministic red-phase schedule."""
        return SignalizedSafetyModel(
            geometry=self.geometry,
            ego_limits=self.ego_limits,
            # The "oncoming" fields are unused by the overridden window
            # but required by the base dataclass; any valid limits do.
            oncoming_limits=VehicleLimits(
                v_min=-1.0, v_max=0.0, a_min=-1.0, a_max=1.0
            ),
            dt_c=self.dt_c,
            light=self.light,
        )

    def emergency_planner(self) -> Planner:
        """Stop before the line / escape the box — reused verbatim."""
        return LeftTurnEmergencyPlanner(self.geometry, self.ego_limits)

    def green_wave_planner(self) -> GreenWavePlanner:
        """A ready-made GLOSA planner for this scenario."""
        return GreenWavePlanner(self.geometry, self.light, self.ego_limits)

    def red_light_runner(self) -> RedLightRunner:
        """The unsafe cruise-through baseline."""
        return RedLightRunner(self.ego_limits)
