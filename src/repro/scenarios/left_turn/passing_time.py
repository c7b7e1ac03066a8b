"""Passing-time-window estimation for the oncoming vehicle.

Section IV of the paper estimates the absolute time window
``[tau_{1,min}(t), tau_{1,max}(t)]`` during which the oncoming vehicle
``C_1`` may occupy the unsafe area:

* the **conservative** estimate (Eq. (7)) assumes the physical limits —
  ``C_1`` may floor the throttle up to ``v_max`` (earliest entry) or
  brake to ``v_min`` (latest exit) — evaluated over the *whole* fused
  uncertainty band, so the window is a sound over-approximation;
* the **aggressive** estimate (Eq. (8)) replaces the physical limits by a
  small buffer around the vehicle's *currently observed* behaviour
  (``a_est = min(a_1(t) + a_buf, a_max)``, ``v_est = min(v_1(t) + v_buf,
  v_max)``) evaluated at the nominal point estimate, producing the
  compact window that lets the NN planner act efficiently.

Coordinate convention: the oncoming vehicle's *global* coordinate
decreases along its direction of travel (it approaches from positive
positions, as in the paper's experiments where ``p_1(0) ≈ 50–60 m`` and
the area sits at ``[5, 15] m``).  All window algebra below works in
*speed* terms — speed ``= -velocity``, acceleration-toward-the-area
``= -a`` — so the shared kinematic primitives of
:mod:`repro.scenarios.left_turn.geometry` apply unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Tuple

from repro.dynamics.vehicle import VehicleLimits
from repro.filtering.fusion import FusedEstimate
from repro.scenarios.left_turn.geometry import (
    NEVER,
    LeftTurnGeometry,
    arrival_time_under,
    earliest_arrival_time,
    earliest_arrival_unchecked,
    latest_arrival_time,
    latest_arrival_unchecked,
)
from repro.utils.intervals import Interval, nan_bounds_error
from repro.utils.validation import check_nonnegative

__all__ = [
    "EMPTY_BOUNDS",
    "SpeedLimits",
    "speed_limits",
    "conservative_bounds",
    "aggressive_bounds",
    "PassingWindowEstimator",
]

#: The empty window as float bounds (any ``lo > hi`` is empty).
EMPTY_BOUNDS: Tuple[float, float] = (math.inf, -math.inf)

#: Finite and infinite floats pass ``x <= _INF``; NaN fails it.
_INF = math.inf


class SpeedLimits(NamedTuple):
    """The oncoming vehicle's raw limits mapped into speed terms.

    Raw velocities are negative (coordinate decreases along travel), so
    raw ``v_min = -max_speed`` and ``v_max = -min_speed``; raw ``a_min``
    is the strongest speed-up and raw ``a_max`` the strongest braking.
    ``checked`` records whether the Eq. (7) arrival-time primitives
    accept these constants; when they do not, the window calls the
    checked primitives, which raise their usual errors.

    Units: max_speed [m/s], min_speed [m/s], max_speedup [m/s^2]
    Units: max_brake [m/s^2]
    """

    max_speed: float
    min_speed: float
    max_speedup: float
    max_brake: float  # negative number in speed terms
    checked: bool


def speed_limits(limits: VehicleLimits) -> SpeedLimits:
    """Map raw oncoming-vehicle limits into :class:`SpeedLimits`.

    Computed once per window estimator or safety model.
    """
    max_speed = -limits.v_min
    min_speed = -limits.v_max
    max_speedup = -limits.a_min
    max_brake = -limits.a_max
    # VehicleLimits already fixes the signs of the accelerations.
    checked = 0.0 < max_speed < math.inf and min_speed >= 0.0
    return SpeedLimits(max_speed, min_speed, max_speedup, max_brake, checked)


def conservative_bounds(
    estimate: FusedEstimate,
    geometry: LeftTurnGeometry,
    speeds: SpeedLimits,
) -> Tuple[float, float]:
    """Sound occupancy window of the unsafe area (Eq. (7) over the band).

    The earliest entry combines the band edge *closest* to the area with
    the *fastest* possible speed and full physical acceleration; the
    latest exit combines the farthest edge, slowest speed and full
    braking down to the speed floor.  The result contains the true
    passing window whenever the fused band contains the true state.

    Returns absolute-time ``(lo, hi)`` bounds, empty (``lo > hi``) when
    the whole band has already cleared the area.  This is the only
    implementation of Eq. (7).

    Units: -> [s]
    """
    max_speed, min_speed, max_speedup, max_brake, checked = speeds

    # Pessimistic clearance check: the farthest band edge must be past
    # the back line for the window to be closed for good.
    d_back_far = estimate.p_hi - geometry.oncoming_back
    if d_back_far <= 0.0:
        return EMPTY_BOUNDS

    d_front_near = estimate.p_lo - geometry.oncoming_front
    fastest_speed = -estimate.v_lo
    slowest_speed = -estimate.v_hi

    earliest, latest = (
        (earliest_arrival_unchecked, latest_arrival_unchecked)
        if checked
        else (earliest_arrival_time, latest_arrival_time)
    )
    entry = earliest(d_front_near, fastest_speed, max_speed, max_speedup)
    exit_ = latest(d_back_far, slowest_speed, min_speed, max_brake)
    if entry == NEVER:
        return EMPTY_BOUNDS
    time = estimate.time
    lo = time + entry
    hi = time + (entry if entry > exit_ else exit_)  # max(exit_, entry)
    if not (lo <= _INF and hi <= _INF):  # a NaN bound
        raise nan_bounds_error(lo, hi)
    return lo, hi


def aggressive_bounds(
    estimate: FusedEstimate,
    geometry: LeftTurnGeometry,
    speeds: SpeedLimits,
    a_buf: float,
    v_buf: float,
) -> Tuple[float, float]:
    """Compact occupancy window from buffered nominal behaviour (Eq. (8)).

    Units: a_buf [m/s^2], v_buf [m/s] -> [s]

    Evaluated at the nominal point estimate with assumed acceleration and
    speed within ``a_buf``/``v_buf`` of the currently observed values
    (clipped at the physical limits).  The window is *not* sound — that
    is the point: the runtime monitor retains the conservative window, so
    feeding this one to the NN planner trades no safety for efficiency.

    Returns absolute-time ``(lo, hi)`` bounds, empty when ``lo > hi``.
    The buffers are not checked here: :class:`PassingWindowEstimator`
    checks them once, at construction.  This is the only implementation
    of Eq. (8).
    """
    max_speed, min_speed, max_speedup, max_brake, _ = speeds

    position = estimate.p
    d_back = position - geometry.oncoming_back
    if d_back <= 0.0:
        return EMPTY_BOUNDS
    d_front = position - geometry.oncoming_front
    speed = -estimate.v
    accel = -estimate.a

    # Entry: at most a_buf more acceleration and v_buf more speed than
    # currently observed (Eq. (8)).  The clips are min/max written as
    # conditionals: the first operand wins unless the comparison holds.
    a_entry = accel + a_buf
    a_entry = max_speedup if max_speedup < a_entry else a_entry
    v_entry_cap = speed + v_buf
    v_entry_cap = max_speed if max_speed < v_entry_cap else v_entry_cap
    v_entry_cap = min_speed if min_speed > v_entry_cap else v_entry_cap
    entry = arrival_time_under(d_front, speed, a_entry, v_entry_cap, min_speed)
    if entry == NEVER:
        return EMPTY_BOUNDS

    # Exit: at most a_buf more braking and v_buf less speed.
    a_exit = accel - a_buf
    a_exit = max_brake if max_brake > a_exit else a_exit
    v_exit_floor = speed - v_buf
    v_exit_floor = min_speed if min_speed > v_exit_floor else v_exit_floor
    v_exit_floor = max_speed if max_speed < v_exit_floor else v_exit_floor
    exit_ = arrival_time_under(d_back, speed, a_exit, max_speed, v_exit_floor)
    time = estimate.time
    lo = time + entry
    hi = time + (entry if entry > exit_ else exit_)  # max(exit_, entry)
    if not (lo <= _INF and hi <= _INF):  # a NaN bound
        raise nan_bounds_error(lo, hi)
    return lo, hi


@dataclass(frozen=True, slots=True)
class PassingWindowEstimator:
    """Bundles geometry, limits and mode into a single window callable.

    Attributes
    ----------
    geometry:
        The left-turn geometry.
    limits:
        *Physical* limits of the oncoming vehicle (raw coordinates).
    aggressive:
        Whether to produce the Eq. (8) buffered window instead of the
        sound Eq. (7) window.
    a_buf, v_buf:
        Buffers for the aggressive mode (ignored otherwise; checked to be
        finite and nonnegative at construction when ``aggressive``).  The
        paper leaves the values user-defined; the experiment defaults
        live in :mod:`repro.experiments.config`.

    Units: a_buf [m/s^2], v_buf [m/s]
    """

    geometry: LeftTurnGeometry
    limits: VehicleLimits
    aggressive: bool = False
    a_buf: float = 0.5
    v_buf: float = 1.0
    #: ``speed_limits(limits)``, derived once at construction.
    _speeds: SpeedLimits = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.aggressive:
            check_nonnegative(self.a_buf, "a_buf")
            check_nonnegative(self.v_buf, "v_buf")
        object.__setattr__(self, "_speeds", speed_limits(self.limits))

    def bounds(self, estimate: FusedEstimate) -> Tuple[float, float]:
        """Absolute-time occupancy window as ``(lo, hi)``; empty if ``lo > hi``.

        Units: -> [s]
        """
        if self.aggressive:
            return aggressive_bounds(
                estimate, self.geometry, self._speeds, self.a_buf, self.v_buf
            )
        return conservative_bounds(estimate, self.geometry, self._speeds)

    def window(self, estimate: FusedEstimate) -> Interval:
        """:meth:`bounds` as an :class:`Interval` (empty as ``Interval.EMPTY``).

        Units: -> [s]
        """
        return Interval(*self.bounds(estimate))
