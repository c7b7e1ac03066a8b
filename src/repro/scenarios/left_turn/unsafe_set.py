"""Unsafe set and boundary safe set of the unprotected left turn.

Implements the slack / projected-passing-window algebra of Section IV:

* the **slack** ``s(t)`` (Eq. (5)) — distance margin between the ego's
  braking envelope and the front line of the unsafe area; negative slack
  means the ego can no longer stop before the area;
* the ego's **projected passing window** ``[tau_{0,min}, tau_{0,max}]`` —
  when the ego would occupy the area at its current velocity;
* the **unsafe set** ``X_u`` (Eq. (6)) — negative slack and intersecting
  passing windows;
* the **boundary safe set** ``X_b`` — nonnegative slack smaller than the
  worst one-step slack decrease
  ``(v_0 dt_c + a_max dt_c^2 / 2)(1 - a_max / a_min)``, with intersecting
  windows; the runtime monitor hands control to the emergency planner
  exactly on this set.

:class:`LeftTurnSafetyModel` packages these predicates behind the
scenario-agnostic :class:`repro.core.unsafe_set.SafetyModel` protocol, on
top of the sound Eq. (7) occupancy window
(:func:`~repro.scenarios.left_turn.passing_time.conservative_window`) over
the fused estimates of the oncoming vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.scenarios.left_turn.geometry import (
    LeftTurnGeometry,
    earliest_arrival_time,
)
from repro.scenarios.left_turn.passing_time import conservative_window
from repro.utils.intervals import Interval
from repro.utils.validation import check_positive

__all__ = [
    "slack",
    "ego_passing_window",
    "boundary_slack_margin",
    "LeftTurnSafetyModel",
]


def slack(
    position: float,
    velocity: float,
    geometry: LeftTurnGeometry,
    ego_limits: VehicleLimits,
) -> float:
    """The slack ``s(t)`` of Eq. (5), in metres.

    Units: position [m], velocity [m/s] -> [m]

    ``position`` is the ego coordinate (negative velocities clamp to a
    standstill).

    Before the front line: front-line distance minus the braking distance
    ``d_b = -v^2 / (2 a_min)`` (``a_min < 0``).  Inside the area: the
    (negative) penetration past the back line.  Past the area: ``inf``.
    """
    v = max(velocity, 0.0)
    if position <= geometry.p_front:
        braking = -0.5 * v * v / ego_limits.a_min
        return geometry.p_front - braking - position
    if position <= geometry.p_back:
        return position - geometry.p_back
    return math.inf


def ego_passing_window(
    time: float,
    position: float,
    velocity: float,
    geometry: LeftTurnGeometry,
) -> Interval:
    """Projected occupancy window of the ego at its current velocity.

    Units: time [s], position [m], velocity [m/s] -> [s]

    ``time`` is the absolute timestamp; the window holds absolute
    seconds.

    Mirrors the paper's three cases: before the front line the window is
    ``[t + d_f/v, t + d_b/v]``; inside the area it opens now and closes
    at ``t + d_b/v``; past the area it is empty.  A stationary ego before
    the area never arrives (empty window); a stationary ego *inside* the
    area occupies it indefinitely (``[t, inf)``).
    """
    if position > geometry.p_back:
        return Interval.EMPTY
    v = max(velocity, 0.0)
    d_back = geometry.ego_distance_to_back(position)
    if position <= geometry.p_front:
        if v <= 0.0:
            return Interval.EMPTY
        d_front = geometry.ego_distance_to_front(position)
        return Interval(time + d_front / v, time + d_back / v)
    if v <= 0.0:
        return Interval(time, math.inf)
    return Interval(time, time + d_back / v)


def boundary_slack_margin(
    velocity: float, dt_c: float, ego_limits: VehicleLimits
) -> float:
    """Worst-case one-step slack decrease (the ``X_b`` threshold), metres.

    Units: velocity [m/s], dt_c [s] -> [m]

    Derived in Section IV: the slack after one control step is at least
    ``s(t) - (v_0 dt_c + a_max dt_c^2 / 2)(1 - a_max / a_min)``, so a
    state with slack below this margin may reach negative slack within
    one step.
    """
    check_positive(dt_c, "dt_c")
    v = max(velocity, 0.0)
    travel = v * dt_c + 0.5 * ego_limits.a_max * dt_c * dt_c
    factor = 1.0 - ego_limits.a_max / ego_limits.a_min
    return travel * factor


@dataclass(frozen=True)
class LeftTurnSafetyModel:
    """Scenario safety predicates over fused estimates.

    Implements the :class:`repro.core.unsafe_set.SafetyModel` protocol
    for the left-turn scenario: the oncoming vehicle's occupancy window
    is estimated conservatively (Eq. (7) over the fused band) and
    combined with the ego's slack and projected window.

    Attributes
    ----------
    geometry:
        Unsafe-area geometry.
    ego_limits:
        The ego's physical limits (slack and margin use ``a_min`` and
        ``a_max``).
    oncoming_limits:
        The oncoming vehicle's physical limits (the conservative window
        must use the true physical capabilities to stay sound).
    dt_c:
        Control period; fixes the boundary-set margin.
    oncoming_index:
        Which vehicle index holds the oncoming vehicle (1 by default).
    """

    geometry: LeftTurnGeometry
    ego_limits: VehicleLimits
    oncoming_limits: VehicleLimits
    dt_c: float
    oncoming_index: int = 1

    def __post_init__(self) -> None:
        check_positive(self.dt_c, "dt_c")
        if self.oncoming_index < 1:
            raise ScenarioError(
                f"oncoming_index must be >= 1, got {self.oncoming_index}"
            )

    # ------------------------------------------------------------------
    # Window plumbing
    # ------------------------------------------------------------------
    def oncoming_window(
        self, time: float, estimates: Mapping[int, FusedEstimate]
    ) -> Interval:
        """Conservative occupancy window from the current estimates.

        Units: time [s] -> [s]

        ``time`` is unused here; subclasses whose window depends on the
        clock (a signal schedule) read it.
        """
        if self.oncoming_index not in estimates:
            raise ScenarioError(
                f"no estimate for the oncoming vehicle "
                f"(index {self.oncoming_index})"
            )
        return conservative_window(
            estimates[self.oncoming_index], self.geometry, self.oncoming_limits
        )

    # ------------------------------------------------------------------
    # Observability hooks (telemetry only — the monitor never calls these)
    # ------------------------------------------------------------------
    def safety_margin(
        self,
        time: float,
        ego: VehicleState,
        estimates: Mapping[int, FusedEstimate],
    ) -> float:
        """The slack ``s(t)`` as a scalar safety margin, metres.

        Units: time [s] -> [m]
        """
        return slack(ego.position, ego.velocity, self.geometry, self.ego_limits)

    def boundary_distance(
        self,
        time: float,
        ego: VehicleState,
        estimates: Mapping[int, FusedEstimate],
    ) -> float:
        """Distance of the slack to the ``X_b`` threshold, metres.

        Units: time [s] -> [m]

        Positive while the slack exceeds the worst one-step decrease;
        zero or negative when the boundary safe set may be reached within
        one control step.
        """
        s = slack(ego.position, ego.velocity, self.geometry, self.ego_limits)
        return s - boundary_slack_margin(
            ego.velocity, self.dt_c, self.ego_limits
        )

    # ------------------------------------------------------------------
    # SafetyModel protocol
    # ------------------------------------------------------------------
    def in_estimated_unsafe_set(
        self,
        time: float,
        ego: VehicleState,
        estimates: Mapping[int, FusedEstimate],
    ) -> bool:
        """Eq. (6): negative slack and intersecting windows.

        Units: time [s]
        """
        s = slack(ego.position, ego.velocity, self.geometry, self.ego_limits)
        if s >= 0.0:
            return False
        ego_window = ego_passing_window(
            time, ego.position, ego.velocity, self.geometry
        )
        return ego_window.overlaps(self.oncoming_window(time, estimates))

    def in_boundary_safe_set(
        self,
        time: float,
        ego: VehicleState,
        estimates: Mapping[int, FusedEstimate],
    ) -> bool:
        """``X_b``: one admissible step away from the unsafe set (Eq. (3)).

        Units: time [s]

        Two branches, both instances of the general definition:

        * **approaching** the area — the slack is nonnegative but within
          one worst-case step of going negative while the windows
          intersect (the derivation of Section IV);
        * **inside** the area — some admissible next step (worst case, a
          full-brake step that stretches the ego's projected occupancy)
          would overlap the oncoming window.  The Section-IV derivation
          leaves this branch implicit, but without it an embedded
          planner that decelerates mid-crossing could drift into the
          unsafe set unprotected; with it, the monitor hands control to
          the emergency planner's full-throttle escape branch as soon as
          lingering becomes a possibility.
        """
        position = ego.position
        if position > self.geometry.p_back:
            return False
        oncoming = self.oncoming_window(time, estimates)
        if oncoming.is_empty or oncoming.hi <= time:
            return False
        s = slack(position, ego.velocity, self.geometry, self.ego_limits)
        if position > self.geometry.p_front or s < 0.0:
            return self._committed_needs_escape(time, ego, oncoming)
        if 0.0 <= s < boundary_slack_margin(
            ego.velocity, self.dt_c, self.ego_limits
        ):
            ego_window = ego_passing_window(
                time, position, ego.velocity, self.geometry
            )
            if ego_window.overlaps(oncoming):
                return True
        return self._some_step_commits_unsafely(time, ego, oncoming)

    # ------------------------------------------------------------------
    # Full-throttle commit invariant
    # ------------------------------------------------------------------
    def _full_throttle_times(
        self, time: float, position: float, velocity: float
    ) -> tuple[float, float]:
        """Earliest possible (entry, exit) times of the unsafe area.

        Units: time [s], position [m], velocity [m/s]

        Both assume full throttle from ``(position, velocity)`` at
        ``time`` — the ego's fastest possible traversal.  These are the
        quantities the commit invariant is stated in: a committed ego is
        safe iff it can *outrun* the oncoming window
        (``exit_ff <= window.lo``) or *out-wait* it
        (``entry_ff >= window.hi``; entry can only be delayed further,
        never advanced past ``entry_ff``).
        """
        v = max(velocity, 0.0)
        d_front = self.geometry.ego_distance_to_front(position)
        d_back = self.geometry.ego_distance_to_back(position)
        entry = time + earliest_arrival_time(
            d_front, v, self.ego_limits.v_max, self.ego_limits.a_max
        )
        exit_ = time + earliest_arrival_time(
            d_back, v, self.ego_limits.v_max, self.ego_limits.a_max
        )
        return entry, exit_

    def _committed_safe(
        self, time: float, position: float, velocity: float, oncoming: Interval
    ) -> bool:
        """The commit invariant at one state.

        Units: time [s], position [m], velocity [m/s]
        """
        entry_ff, exit_ff = self._full_throttle_times(time, position, velocity)
        return exit_ff <= oncoming.lo or entry_ff >= oncoming.hi

    def _committed_needs_escape(
        self, time: float, ego: VehicleState, oncoming: Interval
    ) -> bool:
        """Committed/inside branch of ``X_b``.

        Units: time [s]

        Once stopping before the area is impossible, the only safe plans
        are "outrun the window" (requires flooring the throttle — hand
        control to the emergency planner's escape branch now) or
        "out-wait the window" (the earliest possible entry is after the
        window closes, so *any* control is safe and the NN planner may
        keep control).  The monitor therefore escalates exactly when the
        full-throttle entry could still fall inside the window.
        """
        entry_ff, _ = self._full_throttle_times(
            time, ego.position, ego.velocity
        )
        return entry_ff < oncoming.hi

    def _some_step_commits_unsafely(
        self, time: float, ego: VehicleState, oncoming: Interval
    ) -> bool:
        """Eq. (3) lookahead on the approach side.

        Units: time [s]

        Tests the extremal admissible next steps (full brake, coast,
        full throttle): if any of them loses the ability to stop
        (``s < 0``) while violating the commit invariant, the current
        state is one step from the unsafe set and the emergency planner
        must take over now, while stopping is still possible.  This also
        covers the (near-)stationary ego at the front line, whose
        current-velocity projected window is degenerate.
        """
        dt = self.dt_c
        v = max(ego.velocity, 0.0)
        for accel in (self.ego_limits.a_min, 0.0, self.ego_limits.a_max):
            v_next = min(
                max(v + accel * dt, max(self.ego_limits.v_min, 0.0)),
                self.ego_limits.v_max,
            )
            p_next = ego.position + v * dt + 0.5 * accel * dt * dt
            s_next = slack(p_next, v_next, self.geometry, self.ego_limits)
            if s_next < 0.0 and not self._committed_safe(
                time + dt, p_next, v_next, oncoming
            ):
                return True
        return False
