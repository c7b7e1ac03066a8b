"""Geometry and kinematic algebra of the unprotected left turn.

Figure 4 of the paper: the ego vehicle ``C_0`` turns left across the path
of an oncoming vehicle ``C_1``; a collision happens iff both vehicles
occupy the *unsafe area* (the conflict rectangle) at the same time.  Both
paths are fixed, so each vehicle lives in its own 1-D longitudinal
coordinate and the geometry reduces to, per vehicle, the *distance to the
front line* and the *distance to the back line* of the unsafe area along
its direction of travel.

The ego's coordinate increases toward the area (``p_f = 5 m`` front,
``p_b = 15 m`` back in the paper's experiments).  The oncoming vehicle
approaches from the other side; :class:`LeftTurnGeometry` maps its global
position to the same distance-to-go form so all passing-time algebra is
shared.

Two kinematic primitives underpin every window computation:

* :func:`earliest_arrival_time` — minimum time to cover a distance under
  an acceleration limit and a velocity cap (full throttle, then cruise);
* :func:`latest_arrival_time` — maximum time, i.e. braking toward the
  velocity floor (infinite when the vehicle can stop before arriving).

.. note::
   Eq. (7) of the paper prints the no-cap branch as
   ``(-v + sqrt(v^2 + a (p_f - p1)))/a``.  Solving ``d = v t + a t^2 / 2``
   actually gives ``(-v + sqrt(v^2 + 2 a d))/a``; the missing factor 2 is
   a typo in the paper (the ``d_th`` threshold in the same equation is
   consistent with the factor-2 physics).  This module implements the
   physically correct form, which EXPERIMENTS.md records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ScenarioError
from repro.utils.validation import check_positive

__all__ = [
    "LeftTurnGeometry",
    "earliest_arrival_time",
    "earliest_arrival_unchecked",
    "latest_arrival_time",
    "latest_arrival_unchecked",
]

#: Times beyond this horizon are treated as "never" in window algebra.
NEVER = math.inf


def earliest_arrival_time(
    distance: float, velocity: float, v_cap: float, a_cap: float
) -> float:
    """Minimum time to cover ``distance`` from speed ``velocity``.

    The minimising strategy accelerates at ``a_cap`` until the velocity
    cap ``v_cap`` and cruises at the cap afterwards — the strategy behind
    ``tau_{1,min}`` in Eq. (7).

    Units: distance [m], velocity [m/s], v_cap [m/s], a_cap [m/s^2] -> [s]

    Parameters
    ----------
    distance:
        Distance to go, metres.  Nonpositive distances return 0 (already
        arrived).
    velocity:
        Current speed along the direction of travel, m/s (clipped below
        at 0).
    v_cap:
        Velocity cap, m/s (> 0).
    a_cap:
        Acceleration limit, m/s² (>= 0; 0 means constant speed).

    Returns
    -------
    float
        The earliest arrival delay (seconds; ``inf`` if unreachable, e.g.
        zero speed and zero acceleration).
    """
    check_positive(v_cap, "v_cap")
    if a_cap < 0.0:
        raise ScenarioError(f"a_cap must be >= 0, got {a_cap}")
    return earliest_arrival_unchecked(distance, velocity, v_cap, a_cap)


def earliest_arrival_unchecked(
    distance: float, velocity: float, v_cap: float, a_cap: float
) -> float:
    """:func:`earliest_arrival_time` without its argument checks.

    The one implementation of the minimum arrival time, for callers that
    validated ``v_cap`` (finite, > 0) and ``a_cap`` (>= 0) once, up front.
    A cap of zero or less never arrives.

    Units: distance [m], velocity [m/s], v_cap [m/s], a_cap [m/s^2] -> [s]
    """
    if distance <= 0.0:
        return 0.0
    if v_cap <= 0.0:
        return NEVER
    # max(0.0, min(velocity, v_cap)) as conditionals: the first operand
    # wins unless the comparison holds, so a NaN velocity gives 0.0.
    v = v_cap if v_cap < velocity else velocity
    v = v if v > 0.0 else 0.0
    if a_cap == 0.0:
        if v <= 0.0:
            return NEVER
        return distance / v
    d_th = (v_cap * v_cap - v * v) / (2.0 * a_cap)
    if distance > d_th:
        # Reach the cap, then cruise (first branch of Eq. (7)).
        return (v_cap - v) / a_cap + (distance - d_th) / v_cap
    # Arrive while still accelerating (second branch, factor-2 corrected).
    return (-v + math.sqrt(v * v + 2.0 * a_cap * distance)) / a_cap


def latest_arrival_time(
    distance: float, velocity: float, v_floor: float, a_floor: float
) -> float:
    """Maximum time to cover ``distance`` from speed ``velocity``.

    The maximising strategy brakes at ``a_floor`` (a negative
    acceleration) down to the velocity floor ``v_floor`` and crawls at the
    floor afterwards — the strategy behind ``tau_{1,max}``.  If the floor
    is zero (the vehicle may stop before arriving) the latest arrival is
    ``inf``.

    Units: distance [m], velocity [m/s], v_floor [m/s], a_floor [m/s^2]
    Units: -> [s]

    Parameters
    ----------
    distance:
        Distance to go, metres.  Nonpositive distances return 0.
    velocity:
        Current speed, m/s (clipped below at ``v_floor``).
    v_floor:
        Velocity floor, m/s (>= 0).
    a_floor:
        Most negative acceleration, m/s² (<= 0; 0 means constant speed).
    """
    if v_floor < 0.0:
        raise ScenarioError(f"v_floor must be >= 0, got {v_floor}")
    if a_floor > 0.0:
        raise ScenarioError(f"a_floor must be <= 0, got {a_floor}")
    return latest_arrival_unchecked(distance, velocity, v_floor, a_floor)


def latest_arrival_unchecked(
    distance: float, velocity: float, v_floor: float, a_floor: float
) -> float:
    """:func:`latest_arrival_time` without its argument checks.

    The one implementation of the maximum arrival time, for callers that
    validated ``v_floor`` (>= 0) and ``a_floor`` (<= 0) once, up front.

    Units: distance [m], velocity [m/s], v_floor [m/s], a_floor [m/s^2]
    Units: -> [s]
    """
    if distance <= 0.0:
        return 0.0
    v = v_floor if v_floor > velocity else velocity  # max(velocity, v_floor)
    if a_floor == 0.0:
        if v <= 0.0:
            return NEVER
        return distance / v
    decel = -a_floor
    if v_floor == 0.0:
        # Can the vehicle stop before covering the distance?
        stop_distance = v * v / (2.0 * decel)
        if stop_distance < distance:
            return NEVER
        disc = v * v - 2.0 * decel * distance
        disc = 0.0 if 0.0 > disc else disc  # max(disc, 0.0)
        return (v - math.sqrt(disc)) / decel
    d_th = (v * v - v_floor * v_floor) / (2.0 * decel)
    if distance > d_th:
        # Brake to the floor, then crawl.
        return (v - v_floor) / decel + (distance - d_th) / v_floor
    disc = v * v - 2.0 * decel * distance
    disc = 0.0 if 0.0 > disc else disc  # max(disc, 0.0)
    return (v - math.sqrt(disc)) / decel


def arrival_time_under(
    distance: float,
    velocity: float,
    accel: float,
    v_hi: float,
    v_lo: float,
) -> float:
    """Time to cover ``distance`` applying a *constant* acceleration.

    Units: distance [m], velocity [m/s], accel [m/s^2]
    Units: v_hi [m/s], v_lo [m/s] -> [s]

    The velocity saturates inside ``[v_lo, v_hi]``.  This is the primitive
    behind the aggressive estimation of Eq. (8), where the assumed
    acceleration ``a_est = min(a_1(t) + a_buf, a_max)`` may have either
    sign: positive values reduce to :func:`earliest_arrival_time` with cap
    ``v_hi``, negative values to :func:`latest_arrival_time` with floor
    ``v_lo`` (including the "never arrives" case when the vehicle can stop
    short).

    Returns ``inf`` when the vehicle never covers the distance.
    """
    if v_lo > v_hi:
        raise ScenarioError(f"v_lo ({v_lo}) must be <= v_hi ({v_hi})")
    if distance <= 0.0:
        return 0.0
    # max(v_lo, min(velocity, v_hi)) as conditionals.
    v = v_hi if v_hi < velocity else velocity
    v = v if v > v_lo else v_lo
    if accel > 0.0:
        if v_hi <= 0.0:
            return NEVER
        if not v_hi < NEVER:
            # An infinite or NaN cap: the checked primitive raises.
            return earliest_arrival_time(distance, v, v_hi, accel)
        return earliest_arrival_unchecked(distance, v, v_hi, accel)
    if accel < 0.0:
        # Floor >= 0 and a negative accel: the checks cannot fail.
        return latest_arrival_unchecked(
            distance, v, 0.0 if 0.0 > v_lo else v_lo, accel  # max(v_lo, 0.0)
        )
    if v <= 0.0:
        return NEVER
    return distance / v


@dataclass(frozen=True, slots=True)
class LeftTurnGeometry:
    """Positions of the unsafe area along both vehicles' paths.

    Attributes
    ----------
    p_front, p_back:
        Front and back lines of the unsafe area in the *ego's* coordinate
        (the ego coordinate increases toward and through the area); the
        paper uses 5 m and 15 m.
    oncoming_front, oncoming_back:
        The same two physical lines in the *oncoming vehicle's* global
        coordinate.  The oncoming vehicle drives in the direction of
        decreasing coordinate (it starts around +50 m and approaches), so
        its front line is the *larger* coordinate.  Defaults mirror the
        ego's area (the conflict rectangle is shared).
    p_target:
        Ego coordinate whose crossing completes the left turn (the target
        set of the problem formulation).

    Units: p_front [m], p_back [m], oncoming_front [m]
    Units: oncoming_back [m], p_target [m]
    """

    p_front: float = 5.0
    p_back: float = 15.0
    oncoming_front: float = 15.0
    oncoming_back: float = 5.0
    p_target: float = 20.0

    def __post_init__(self) -> None:
        if self.p_back <= self.p_front:
            raise ScenarioError(
                f"p_back ({self.p_back}) must exceed p_front ({self.p_front})"
            )
        if self.oncoming_back >= self.oncoming_front:
            raise ScenarioError(
                "oncoming_back must be below oncoming_front (the oncoming "
                "vehicle drives toward decreasing coordinates)"
            )
        if self.p_target < self.p_back:
            raise ScenarioError(
                f"p_target ({self.p_target}) must be at or past p_back "
                f"({self.p_back})"
            )

    # ------------------------------------------------------------------
    # Ego-side distances (coordinate increases along travel)
    # ------------------------------------------------------------------
    def ego_distance_to_front(self, position: float) -> float:
        """Signed distance from the ego to the front line (+ = before).

        Units: position [m] -> [m]
        """
        return self.p_front - position

    def ego_distance_to_back(self, position: float) -> float:
        """Signed distance from the ego to the back line (+ = before).

        Units: position [m] -> [m]
        """
        return self.p_back - position

    def ego_inside(self, position: float) -> bool:
        """Whether the ego occupies the unsafe area.

        The interior is *open*: a vehicle stopped exactly on the front
        line does not occupy the area.  This matches the paper's slack
        algebra, where ``s = 0`` (able to stop exactly at the line) is a
        safe state, and makes the emergency planner's stop-at-the-line
        limit behaviour safe.

        Units: position [m]
        """
        return self.p_front < position < self.p_back

    def ego_cleared(self, position: float) -> bool:
        """Whether the ego has fully passed the unsafe area.

        Units: position [m]
        """
        return position > self.p_back

    def ego_reached_target(self, position: float) -> bool:
        """Whether the ego completed the turn (target-set membership).

        Units: position [m]
        """
        return position >= self.p_target

    # ------------------------------------------------------------------
    # Oncoming-side distances (coordinate decreases along travel)
    # ------------------------------------------------------------------
    def oncoming_distance_to_front(self, position: float) -> float:
        """Signed travel distance from the oncoming vehicle to its front line.

        Units: position [m] -> [m]
        """
        return position - self.oncoming_front

    def oncoming_distance_to_back(self, position: float) -> float:
        """Signed travel distance from the oncoming vehicle to its back line.

        Units: position [m] -> [m]
        """
        return position - self.oncoming_back

    def oncoming_inside(self, position: float) -> bool:
        """Whether the oncoming vehicle occupies the unsafe area.

        Open interior, symmetric with :meth:`ego_inside`.

        Units: position [m]
        """
        return self.oncoming_back < position < self.oncoming_front

    def oncoming_cleared(self, position: float) -> bool:
        """Whether the oncoming vehicle has fully passed the unsafe area.

        Units: position [m]
        """
        return position < self.oncoming_back

    # ------------------------------------------------------------------
    # Collision ground truth
    # ------------------------------------------------------------------
    def collision(self, ego_position: float, oncoming_position: float) -> bool:
        """Both vehicles in the unsafe area at once (the paper's X_u).

        Units: ego_position [m], oncoming_position [m]

        :meth:`ego_inside` and :meth:`oncoming_inside` written out: the
        engine asks this every step.
        """
        return (
            self.p_front < ego_position < self.p_back
            and self.oncoming_back < oncoming_position < self.oncoming_front
        )
