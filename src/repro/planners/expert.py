"""Rule-based expert planners for the unprotected left turn.

The paper trains its NN planners with the (unreleased) learning method of
Liu et al. (ICCPS'22); this reproduction substitutes imitation learning
from the rule-based experts below (see DESIGN.md §2).  Two parameter
presets reproduce the two personalities the evaluation needs:

* a **conservative** expert — generous time margins, sound passing
  windows, comfortable braking: safe but slow, like ``kappa_{n,cons}``;
* an **aggressive** expert — thin margins over compact (Eq. (8)-style)
  windows and harder acceleration: fast, but it commits to crossings
  that the oncoming vehicle's later behaviour can invalidate, producing
  the collision rate Table II reports for ``kappa_{n,aggr}``.

The expert's decision each step is GO (accelerate through the area) or
YIELD (approach and stop before the front line):

* GO when the area is already entered or cleared, when the oncoming
  window is empty or entirely in the past, or when the ego can clear the
  back line at full planned throttle ``entry_margin`` seconds before the
  window opens;
* YIELD otherwise: track a safe approach speed
  ``min(cruise, sqrt(2 b d))`` toward a stop ``stop_margin`` before the
  front line, switching to the exact required braking once it reaches
  the comfort level ``b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import no_estimate_error
from repro.scenarios.left_turn.geometry import (
    LeftTurnGeometry,
    earliest_arrival_time,
)
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.utils.intervals import Interval

__all__ = ["ExpertConfig", "LeftTurnExpertPlanner"]


@dataclass(frozen=True, slots=True)
class ExpertConfig:
    """Behaviour parameters of the rule-based expert.

    Attributes
    ----------
    cruise_speed:
        Approach speed target when no conflict window is open, m/s.
    conflict_cruise_speed:
        Approach speed target when the conflict window opens imminently,
        m/s.  A timid (low) value is what makes a planner *conservative*:
        it creeps toward the area whenever a conflict looms.  Aggressive
        planners keep this close to ``cruise_speed``.
    conflict_near_time, conflict_far_time:
        The urgency blend: when the window opens within
        ``conflict_near_time`` seconds the approach target is
        ``conflict_cruise_speed``; beyond ``conflict_far_time`` it is
        ``cruise_speed``; linear in between.  This is where the width of
        the estimated unsafe set pays off — a planner fed the compact
        aggressive window sees the conflict as further away and keeps
        its speed, which is precisely the efficiency mechanism of the
        paper's ultimate compound planner.
    go_accel:
        Throttle used when committing to the crossing, m/s².
    entry_margin:
        Required clearance (seconds) between the ego's projected exit and
        the oncoming window's opening for a go-before decision.  May be
        *negative*: an over-aggressive planner willing to cut into the
        estimated window, which is how the paper's unsafe
        ``kappa_{n,aggr}`` personality arises.
    stop_margin:
        Distance (metres) before the front line where a yielding ego
        aims to stop.
    comfort_brake:
        Comfortable deceleration magnitude, m/s² (must stay below the
        physical ``|a_min|`` so the yield law has reserve).
    speed_gain:
        Proportional gain of the approach-speed tracking law, 1/s.
    """

    cruise_speed: float = 12.0
    conflict_cruise_speed: float = 6.0
    conflict_near_time: float = 1.0
    conflict_far_time: float = 8.0
    go_accel: float = 2.5
    entry_margin: float = 1.5
    stop_margin: float = 2.0
    comfort_brake: float = 2.0
    speed_gain: float = 2.0

    def __post_init__(self) -> None:
        if self.cruise_speed <= 0.0:
            raise ConfigurationError("cruise_speed must be > 0")
        if self.conflict_cruise_speed <= 0.0:
            raise ConfigurationError("conflict_cruise_speed must be > 0")
        if self.conflict_far_time <= self.conflict_near_time:
            raise ConfigurationError(
                "conflict_far_time must exceed conflict_near_time"
            )
        if self.go_accel <= 0.0:
            raise ConfigurationError("go_accel must be > 0")
        if self.stop_margin < 0.0:
            raise ConfigurationError("stop_margin must be >= 0")
        if self.comfort_brake <= 0.0:
            raise ConfigurationError("comfort_brake must be > 0")
        if self.speed_gain <= 0.0:
            raise ConfigurationError("speed_gain must be > 0")

    @classmethod
    def conservative(cls) -> "ExpertConfig":
        """Preset behind ``kappa_{n,cons}``."""
        return cls(
            cruise_speed=12.0,
            conflict_cruise_speed=4.5,
            conflict_near_time=1.0,
            conflict_far_time=10.0,
            go_accel=2.2,
            entry_margin=2.5,
            stop_margin=2.5,
            comfort_brake=3.0,
            speed_gain=2.0,
        )

    @classmethod
    def aggressive(cls) -> "ExpertConfig":
        """Preset behind ``kappa_{n,aggr}``."""
        return cls(
            cruise_speed=14.0,
            conflict_cruise_speed=12.0,
            go_accel=3.5,
            entry_margin=-0.3,
            stop_margin=0.5,
            comfort_brake=3.0,
            speed_gain=2.5,
        )


class LeftTurnExpertPlanner:
    """GO/YIELD expert over a passing-window estimator.

    Parameters
    ----------
    geometry:
        The left-turn geometry.
    limits:
        Ego actuation limits.
    window_estimator:
        Estimator of the oncoming vehicle's occupancy window; a
        conservative estimator yields the conservative expert, an
        aggressive estimator (plus an aggressive :class:`ExpertConfig`)
        the aggressive one.
    config:
        Behaviour parameters.
    oncoming_index:
        Vehicle index of the oncoming vehicle.
    """

    def __init__(
        self,
        geometry: LeftTurnGeometry,
        limits: VehicleLimits,
        window_estimator: PassingWindowEstimator,
        config: ExpertConfig,
        oncoming_index: int = 1,
    ) -> None:
        if config.comfort_brake > -limits.a_min:
            raise ConfigurationError(
                "comfort_brake exceeds the vehicle's physical braking"
            )
        self._geometry = geometry
        self._limits = limits
        self._windows = window_estimator
        self._config = config
        self._oncoming_index = oncoming_index

    @property
    def config(self) -> ExpertConfig:
        """Behaviour parameters."""
        return self._config

    @property
    def limits(self) -> VehicleLimits:
        """The ego actuation limits the expert respects."""
        return self._limits

    @property
    def geometry(self) -> LeftTurnGeometry:
        """The scenario geometry."""
        return self._geometry

    @property
    def window_estimator(self) -> PassingWindowEstimator:
        """The window estimator this expert consults."""
        return self._windows

    # ------------------------------------------------------------------
    # Planner protocol
    # ------------------------------------------------------------------
    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """One GO/YIELD decision from the current estimates.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]
        """
        try:
            estimate = estimates[self._oncoming_index]
        except KeyError as exc:
            raise no_estimate_error(self._oncoming_index) from exc
        return self.plan_from_window(
            time, position, velocity, self._windows.window(estimate)
        )

    def plan_from_window(
        self, time: float, position: float, velocity: float, window: Interval
    ) -> float:
        """The decision law on explicit inputs.

        Units: time [s], position [m], velocity [m/s] -> [m/s^2]

        Exposed separately so demonstration generation can query the
        expert on arbitrary (state, window) pairs without constructing
        fused estimates.
        """
        if self.should_go(time, position, velocity, window):
            return self._go_command(velocity)
        return self._yield_command(time, position, velocity, window)

    def approach_speed(self, time: float, window: Interval) -> float:
        """Urgency-blended approach speed target (see :class:`ExpertConfig`).

        Units: time [s] -> [m/s]
        """
        cfg = self._config
        if window.is_empty:
            return cfg.cruise_speed
        time_to_window = window.lo - time
        span = cfg.conflict_far_time - cfg.conflict_near_time
        blend = (time_to_window - cfg.conflict_near_time) / span
        blend = min(max(blend, 0.0), 1.0)
        return (
            cfg.conflict_cruise_speed
            + (cfg.cruise_speed - cfg.conflict_cruise_speed) * blend
        )

    # ------------------------------------------------------------------
    # Decision pieces
    # ------------------------------------------------------------------
    def should_go(
        self, time: float, position: float, velocity: float, window: Interval
    ) -> bool:
        """The GO predicate.

        Units: time [s], position [m], velocity [m/s]

        GO fires in three situations:

        * committed — the ego already entered the area;
        * go-after — the window will have closed by the time the ego can
          *reach the front line* at full planned throttle (anticipatory:
          the ego accelerates toward the area while the oncoming vehicle
          is still clearing it, timed to arrive just behind it);
        * go-before — the ego can *clear the back line* at full planned
          throttle ``entry_margin`` seconds before the window opens.
        """
        geometry = self._geometry
        if position > geometry.p_front:
            # Entered (or cleared) the area: committed, keep going.
            return True
        if window.is_empty or window.hi <= time:
            # No conflict ahead: the oncoming vehicle cleared or never
            # arrives.
            return True
        v = max(velocity, 0.0)
        d_front = geometry.ego_distance_to_front(position)
        t_reach = earliest_arrival_time(
            d_front, v, self._limits.v_max, self._config.go_accel
        )
        if window.hi <= time + t_reach:
            return True
        d_back = geometry.ego_distance_to_back(position)
        t_clear = earliest_arrival_time(
            d_back, v, self._limits.v_max, self._config.go_accel
        )
        return time + t_clear + self._config.entry_margin <= window.lo

    def _go_command(self, velocity: float) -> float:
        """Throttle toward the crossing, easing off at the cruise speed."""
        cap = min(self._config.cruise_speed, self._limits.v_max)
        if velocity >= cap:
            return 0.0
        return self._config.go_accel

    def _yield_command(
        self, time: float, position: float, velocity: float, window: Interval
    ) -> float:
        """Approach-and-stop law toward ``stop_margin`` before the line.

        The approach speed target blends between timid and assertive with
        the urgency of the conflict window (:meth:`approach_speed`), and
        is capped by the speed from which a comfortable stop at the
        target point is still possible.
        """
        cfg = self._config
        v = max(velocity, 0.0)
        d_stop = (
            self._geometry.ego_distance_to_front(position) - cfg.stop_margin
        )
        if d_stop <= 0.0:
            # Past the intended stopping point but not yet past the front
            # line (should_go handles that): brake hard.
            return self._limits.a_min
        v_safe = math.sqrt(2.0 * cfg.comfort_brake * d_stop)
        v_target = min(self.approach_speed(time, window), v_safe)
        command = cfg.speed_gain * (v_target - v)
        if v > v_safe:
            # The tracking law alone may under-brake; switch to the exact
            # constant deceleration that stops at the target point.
            required = -v * v / (2.0 * d_stop)
            command = min(command, required)
        return self._limits.clip_acceleration(
            min(command, self._config.go_accel)
        )
