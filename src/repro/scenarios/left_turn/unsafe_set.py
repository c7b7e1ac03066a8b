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

:class:`LeftTurnSafetyModel` packages these memberships behind the
scenario-agnostic :class:`repro.core.unsafe_set.SafetyModel` protocol, on
top of the sound Eq. (7) occupancy window
(:func:`~repro.scenarios.left_turn.passing_time.conservative_bounds`) over
the fused estimates of the oncoming vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.scenarios.left_turn.geometry import (
    LeftTurnGeometry,
    earliest_arrival_time,
    earliest_arrival_unchecked,
)
from repro.scenarios.left_turn.passing_time import (
    EMPTY_BOUNDS,
    conservative_bounds,
    speed_limits,
)
from repro.utils.intervals import bounds_overlap, nan_bounds_error
from repro.utils.validation import check_positive

__all__ = [
    "SLACK_ROUNDOFF",
    "slack",
    "ego_passing_bounds",
    "boundary_slack_margin",
    "LeftTurnSafetyModel",
]

#: Finite and infinite floats pass ``x <= _INF``; NaN fails it.
_INF = math.inf

#: Slack (metres) below which a lookahead step counts as losing the stop.
#: Zero slack is safe only on the knife edge of braking at exactly
#: ``a_min`` to a standstill at the front line; rounding in the
#: integration then leaves the ego a few ulps past the line, or the
#: emergency planner reads a slack of ``-1e-15`` as committed and floors
#: the throttle into the window.  Engaging one step earlier, while the
#: slack is still a full step's margin, keeps the ego off that edge.
SLACK_ROUNDOFF = 1e-9


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
    v = 0.0 if 0.0 > velocity else velocity  # max(velocity, 0.0)
    if position <= geometry.p_front:
        braking = -0.5 * v * v / ego_limits.a_min
        return geometry.p_front - braking - position
    if position <= geometry.p_back:
        return position - geometry.p_back
    return math.inf


def ego_passing_bounds(
    time: float,
    position: float,
    velocity: float,
    geometry: LeftTurnGeometry,
) -> Tuple[float, float]:
    """Projected occupancy window of the ego at its current velocity.

    Units: time [s], position [m], velocity [m/s] -> [s]

    ``time`` is the absolute timestamp; the window is returned as
    absolute ``(lo, hi)`` seconds, empty when ``lo > hi``.

    Mirrors the paper's three cases: before the front line the window is
    ``[t + d_f/v, t + d_b/v]``; inside the area it opens now and closes
    at ``t + d_b/v``; past the area it is empty.  A stationary ego before
    the area never arrives (empty window); a stationary ego *inside* the
    area occupies it indefinitely (``[t, inf)``).
    """
    if position > geometry.p_back:
        return EMPTY_BOUNDS
    v = 0.0 if 0.0 > velocity else velocity  # max(velocity, 0.0)
    d_back = geometry.p_back - position
    if position <= geometry.p_front:
        if v <= 0.0:
            return EMPTY_BOUNDS
        lo = time + (geometry.p_front - position) / v
        hi = time + d_back / v
    elif v <= 0.0:
        lo = time
        hi = math.inf
    else:
        lo = time
        hi = time + d_back / v
    if not (lo <= _INF and hi <= _INF):  # a NaN bound
        raise nan_bounds_error(lo, hi)
    return lo, hi


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
    half_a_dt2, factor = _margin_terms(dt_c, ego_limits)
    v = 0.0 if 0.0 > velocity else velocity  # max(velocity, 0.0)
    return _slack_margin(v, dt_c, half_a_dt2, factor)


def _margin_terms(dt_c: float, ego_limits: VehicleLimits) -> Tuple[float, float]:
    """The velocity-free terms of the ``X_b`` margin.

    Units: dt_c [s]

    Returns ``a_max dt_c^2 / 2`` (metres) and the dimensionless factor
    ``1 - a_max / a_min``.
    """
    half_a_dt2 = 0.5 * ego_limits.a_max * dt_c * dt_c
    factor = 1.0 - ego_limits.a_max / ego_limits.a_min
    return half_a_dt2, factor


def _slack_margin(v: float, dt_c: float, half_a_dt2: float, factor: float) -> float:
    """``(v dt_c + a_max dt_c^2 / 2)(1 - a_max / a_min)`` for ``v >= 0``.

    Units: v [m/s], dt_c [s], half_a_dt2 [m] -> [m]
    """
    travel = v * dt_c + half_a_dt2
    return travel * factor


@dataclass(frozen=True)
class LeftTurnSafetyModel:
    """Scenario safety model over fused estimates.

    Implements the :class:`repro.core.unsafe_set.SafetyModel` protocol
    for the left-turn scenario: the oncoming vehicle's occupancy window
    is estimated conservatively (Eq. (7) over the fused band) and
    combined with the ego's slack and projected window.

    :meth:`decide` runs on floats.  The window comes from
    :meth:`oncoming_bounds`, the one override point for where the
    conflict window comes from.  The constants of the frozen model --
    the oncoming limits in speed terms, the boundary-margin terms and
    the lookahead steps' ``a dt`` and ``a dt^2 / 2`` -- are derived
    once, at construction, and are not dataclass fields, so equality,
    repr and pickling see only the fields below.

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
        ego = self.ego_limits
        dt = self.dt_c
        half_a_dt2, factor = _margin_terms(dt, ego)
        constants = {
            "_speeds": speed_limits(self.oncoming_limits),
            "_half_a_dt2": half_a_dt2,
            "_margin_factor": factor,
            # (a dt, a dt^2 / 2) of full brake, coast and full throttle.
            "_lookahead": tuple(
                (accel * dt, 0.5 * accel * dt * dt)
                for accel in (ego.a_min, 0.0, ego.a_max)
            ),
            "_v_floor": max(ego.v_min, 0.0),
            # The full-throttle arrival primitive; the checked one when
            # the ego's v_max is not a valid cap, so it raises as before.
            "_full_throttle_arrival": (
                earliest_arrival_unchecked
                if 0.0 < ego.v_max < math.inf
                else earliest_arrival_time
            ),
        }
        for name, value in constants.items():
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Window plumbing
    # ------------------------------------------------------------------
    def oncoming_bounds(
        self, time: float, estimates: Mapping[int, FusedEstimate]
    ) -> Tuple[float, float]:
        """Conservative occupancy window as ``(lo, hi)``; empty if ``lo > hi``.

        Units: time [s] -> [s]

        ``time`` is unused here; subclasses whose window depends on the
        clock (a signal schedule) read it.  This is the override point
        :meth:`decide` reads the conflict window through.
        """
        if self.oncoming_index not in estimates:
            raise ScenarioError(
                f"no estimate for the oncoming vehicle "
                f"(index {self.oncoming_index})"
            )
        return conservative_bounds(
            estimates[self.oncoming_index], self.geometry, self._speeds
        )

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
        """The slack ``s(t)`` as a scalar safety margin, metres.

        Units: time [s], position [m], velocity [m/s] -> [m]
        """
        return slack(position, velocity, self.geometry, self.ego_limits)

    def boundary_distance(
        self,
        time: float,
        position: float,
        velocity: float,
        estimates: Mapping[int, FusedEstimate],
    ) -> float:
        """Distance of the slack to the ``X_b`` threshold, metres.

        Units: time [s], position [m], velocity [m/s] -> [m]

        Positive while the slack exceeds the worst one-step decrease;
        zero or negative when the boundary safe set may be reached within
        one control step.
        """
        s = slack(position, velocity, self.geometry, self.ego_limits)
        return s - boundary_slack_margin(velocity, self.dt_c, self.ego_limits)

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
        """Both memberships at once, with the window evaluated at most once.

        Units: time [s], position [m], velocity [m/s]

        Returns ``(in_boundary, in_unsafe, window)``, where ``window`` is
        the conflict window as ``(lo, hi)`` seconds when either
        membership needed it (``None`` otherwise).  A missing estimate
        raises :class:`~repro.errors.ScenarioError` when the window is
        needed, which is whenever the ego is at or before the back line.

        ``in_unsafe`` is Eq. (6): negative slack and intersecting windows.

        ``in_boundary`` is ``X_b``, one admissible step away from the
        unsafe set (Eq. (3)), with two branches, both instances of the
        general definition:

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
        s = slack(position, velocity, self.geometry, self.ego_limits)
        window = None
        in_boundary = False
        if not position > self.geometry.p_back:
            window = self.oncoming_bounds(time, estimates)
            in_boundary = self._boundary(time, position, velocity, s, window)
        in_unsafe, window = self._unsafe(time, position, velocity, s, window, estimates)
        return in_boundary, in_unsafe, window

    def _unsafe(
        self,
        time: float,
        position: float,
        velocity: float,
        s: float,
        window: Optional[Tuple[float, float]],
        estimates: Mapping[int, FusedEstimate],
    ) -> Tuple[bool, Optional[Tuple[float, float]]]:
        """Eq. (6) at slack ``s``, reading ``window`` if already computed.

        Units: time [s], position [m], velocity [m/s], s [m]

        Returns the membership and the window, computed here when the
        test needed it and ``window`` was ``None``.
        """
        if s >= 0.0:
            return False, window
        ego_lo, ego_hi = ego_passing_bounds(time, position, velocity, self.geometry)
        if window is None:
            window = self.oncoming_bounds(time, estimates)
        return bounds_overlap(ego_lo, ego_hi, window[0], window[1]), window

    def _boundary(
        self,
        time: float,
        position: float,
        velocity: float,
        s: float,
        window: Tuple[float, float],
    ) -> bool:
        """``X_b`` for an ego at or before the back line, given the window.

        Units: time [s], position [m], velocity [m/s], s [m]
        """
        lo, hi = window
        if lo > hi or hi <= time:
            return False
        geometry = self.geometry
        if position > geometry.p_front or s < 0.0:
            return self._committed_needs_escape(time, position, velocity, hi)
        v = 0.0 if 0.0 > velocity else velocity  # max(velocity, 0.0)
        if 0.0 <= s < _slack_margin(
            v, self.dt_c, self._half_a_dt2, self._margin_factor
        ):
            ego_lo, ego_hi = ego_passing_bounds(time, position, velocity, geometry)
            if bounds_overlap(ego_lo, ego_hi, lo, hi):
                return True
        return self._some_step_commits_unsafely(time, position, velocity, lo, hi)

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
        v = 0.0 if 0.0 > velocity else velocity  # max(velocity, 0.0)
        v_max = self.ego_limits.v_max
        a_max = self.ego_limits.a_max
        arrival = self._full_throttle_arrival
        entry = time + arrival(self.geometry.p_front - position, v, v_max, a_max)
        exit_ = time + arrival(self.geometry.p_back - position, v, v_max, a_max)
        return entry, exit_

    def _committed_needs_escape(
        self, time: float, position: float, velocity: float, window_hi: float
    ) -> bool:
        """Committed/inside branch of ``X_b``.

        Units: time [s], position [m], velocity [m/s], window_hi [s]

        Once stopping before the area is impossible, the only safe plans
        are "outrun the window" (requires flooring the throttle — hand
        control to the emergency planner's escape branch now) or
        "out-wait the window" (the earliest possible entry is after the
        window closes, so *any* control is safe and the NN planner may
        keep control).  The monitor therefore escalates exactly when the
        full-throttle entry could still fall inside the window, which
        closes at ``window_hi``.
        """
        entry_ff, _ = self._full_throttle_times(time, position, velocity)
        return entry_ff < window_hi

    def _some_step_commits_unsafely(
        self,
        time: float,
        position: float,
        velocity: float,
        window_lo: float,
        window_hi: float,
    ) -> bool:
        """Eq. (3) lookahead on the approach side.

        Units: time [s], position [m], velocity [m/s], window_lo [s]
        Units: window_hi [s]

        Tests the extremal admissible next steps (full brake, coast,
        full throttle): if any of them loses the ability to stop
        (``s < SLACK_ROUNDOFF``, zero slack up to rounding) while
        violating the commit invariant -- the full-throttle exit after
        the window opens and the entry before it closes -- the current
        state is one step from the unsafe set and the emergency planner
        must take over now, while stopping is still possible.  This also
        covers the (near-)stationary ego at the front line, whose
        current-velocity projected window is degenerate.
        """
        dt = self.dt_c
        v = 0.0 if 0.0 > velocity else velocity  # max(velocity, 0.0)
        v_floor = self._v_floor
        v_max = self.ego_limits.v_max
        for a_dt, half_a_dt2 in self._lookahead:
            # min(max(v + a_dt, v_floor), v_max) as conditionals.
            v_next = v + a_dt
            v_next = v_floor if v_floor > v_next else v_next
            v_next = v_max if v_max < v_next else v_next
            p_next = position + v * dt + half_a_dt2
            s_next = slack(p_next, v_next, self.geometry, self.ego_limits)
            if s_next < SLACK_ROUNDOFF:
                entry_ff, exit_ff = self._full_throttle_times(
                    time + dt, p_next, v_next
                )
                if not (exit_ff <= window_lo or entry_ff >= window_hi):
                    return True
        return False
