"""Test-only oracle: the Interval path of the left-turn shield the float one replaced.

This is the per-step shield of ``repro.scenarios.left_turn`` as it stood
before the monitor and the NN planner's window were rewritten on plain
floats: the Eq. (7)/(8) windows built as
:class:`~repro.utils.intervals.Interval` objects through the checked
arrival-time primitives, the ego's projected window as an ``Interval``
tested with :meth:`Interval.overlaps`, the boundary-set margin and the
one-step lookahead recomputed from the limits on every call, and the NN
planner reading its features from :meth:`PassingWindowEstimator.window`.
It is kept unchanged as the slow counterpart of the fast path;
``tests/test_shield_oracle.py`` checks the two against each other case
by case.  The emergency planner, the monitor's evaluation and the
compound planner's step are kept as they were before the float entry
points (``plan_floats``, ``decide``) replaced them on the control path:
each reads its ego state from a :class:`PlanningContext` and the monitor
evaluates each predicate in turn.

The two predicates are also kept for the other safety models, as they
were before ``decide`` became each model's one entry: the
multi-oncoming model's OR of its per-vehicle predicates, and the
car-following model's braking-envelope slack on a
:class:`~repro.dynamics.state.VehicleState`.

:func:`clipped_command` is the planners' output clip as it was written
with ``math.isnan``, ``math.isinf`` and ``VehicleLimits.clip_acceleration``.

The predicates take the safety model as their first argument and
:func:`nn_plan` the planner, so they have the signatures of the methods
they replaced.  The predicates and :func:`oncoming_window` dispatch on
the model's type (the signalized model reads its light's red phase).
"""

from __future__ import annotations

import math
from typing import Mapping, Tuple

import numpy as np

from repro.core.compound import CompoundPlanner
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import PlannerError, ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.nn.layers import chain_steps, layer_chain
from repro.planners.base import PlanningContext, clipped
from repro.planners.nn_planner import N_FEATURES, WINDOW_FAR, WINDOW_PAST, NNPlanner
from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
from repro.scenarios.car_following import CarFollowingSafetyModel
from repro.scenarios.left_turn.geometry import LeftTurnGeometry
from repro.scenarios.left_turn.multi import MultiOncomingSafetyModel
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.scenarios.left_turn.unsafe_set import SLACK_ROUNDOFF, LeftTurnSafetyModel
from repro.scenarios.signalized import SignalizedSafetyModel, TrafficLight
from repro.utils.intervals import Interval
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "aggressive_window",
    "boundary_slack_margin",
    "clipped_command",
    "compound_plan",
    "conservative_window",
    "earliest_arrival_time",
    "ego_passing_window",
    "emergency_plan",
    "estimator_window",
    "following_slack",
    "in_boundary_safe_set",
    "in_estimated_unsafe_set",
    "latest_arrival_time",
    "monitor_decision",
    "nn_plan",
    "oncoming_window",
    "slack",
]

NEVER = math.inf


# ----------------------------------------------------------------------
# Kinematic primitives (geometry.py)
# ----------------------------------------------------------------------
def earliest_arrival_time(
    distance: float, velocity: float, v_cap: float, a_cap: float
) -> float:
    """Minimum time to cover ``distance``: full throttle, then cruise."""
    check_positive(v_cap, "v_cap")
    if a_cap < 0.0:
        raise ScenarioError(f"a_cap must be >= 0, got {a_cap}")
    if distance <= 0.0:
        return 0.0
    v = max(0.0, min(velocity, v_cap))
    if a_cap == 0.0:
        if v <= 0.0:
            return NEVER
        return distance / v
    d_th = (v_cap * v_cap - v * v) / (2.0 * a_cap)
    if distance > d_th:
        return (v_cap - v) / a_cap + (distance - d_th) / v_cap
    return (-v + math.sqrt(v * v + 2.0 * a_cap * distance)) / a_cap


def latest_arrival_time(
    distance: float, velocity: float, v_floor: float, a_floor: float
) -> float:
    """Maximum time to cover ``distance``: brake to the floor, then crawl."""
    if v_floor < 0.0:
        raise ScenarioError(f"v_floor must be >= 0, got {v_floor}")
    if a_floor > 0.0:
        raise ScenarioError(f"a_floor must be <= 0, got {a_floor}")
    if distance <= 0.0:
        return 0.0
    v = max(velocity, v_floor)
    if a_floor == 0.0:
        if v <= 0.0:
            return NEVER
        return distance / v
    decel = -a_floor
    if v_floor == 0.0:
        stop_distance = v * v / (2.0 * decel)
        if stop_distance < distance:
            return NEVER
        disc = v * v - 2.0 * decel * distance
        return (v - math.sqrt(max(disc, 0.0))) / decel
    d_th = (v * v - v_floor * v_floor) / (2.0 * decel)
    if distance > d_th:
        return (v - v_floor) / decel + (distance - d_th) / v_floor
    disc = v * v - 2.0 * decel * distance
    return (v - math.sqrt(max(disc, 0.0))) / decel


def arrival_time_under(
    distance: float, velocity: float, accel: float, v_hi: float, v_lo: float
) -> float:
    """Time to cover ``distance`` at a constant, saturating acceleration."""
    if v_lo > v_hi:
        raise ScenarioError(f"v_lo ({v_lo}) must be <= v_hi ({v_hi})")
    if distance <= 0.0:
        return 0.0
    v = max(v_lo, min(velocity, v_hi))
    if accel > 0.0:
        if v_hi <= 0.0:
            return NEVER
        return earliest_arrival_time(distance, v, v_hi, accel)
    if accel < 0.0:
        return latest_arrival_time(distance, v, max(v_lo, 0.0), accel)
    if v <= 0.0:
        return NEVER
    return distance / v


# ----------------------------------------------------------------------
# Passing windows (passing_time.py)
# ----------------------------------------------------------------------
def _speed_quantities(limits: VehicleLimits):
    max_speed = -limits.v_min
    min_speed = -limits.v_max
    max_speedup = -limits.a_min
    max_brake = -limits.a_max
    return max_speed, min_speed, max_speedup, max_brake


def conservative_window(
    estimate: FusedEstimate, geometry: LeftTurnGeometry, limits: VehicleLimits
) -> Interval:
    """Eq. (7) over the fused band, as an ``Interval``."""
    max_speed, min_speed, max_speedup, max_brake = _speed_quantities(limits)
    d_back_far = geometry.oncoming_distance_to_back(estimate.p_hi)
    if d_back_far <= 0.0:
        return Interval.EMPTY
    d_front_near = geometry.oncoming_distance_to_front(estimate.p_lo)
    fastest_speed = -estimate.v_lo
    slowest_speed = -estimate.v_hi
    entry = earliest_arrival_time(
        d_front_near, fastest_speed, max_speed, max_speedup
    )
    exit_ = latest_arrival_time(d_back_far, slowest_speed, min_speed, max_brake)
    if entry == NEVER:
        return Interval.EMPTY
    return Interval(estimate.time + entry, estimate.time + max(exit_, entry))


def aggressive_window(
    estimate: FusedEstimate,
    geometry: LeftTurnGeometry,
    limits: VehicleLimits,
    a_buf: float,
    v_buf: float,
) -> Interval:
    """Eq. (8) at the nominal estimate, as an ``Interval``."""
    check_nonnegative(a_buf, "a_buf")
    check_nonnegative(v_buf, "v_buf")
    max_speed, min_speed, max_speedup, max_brake = _speed_quantities(limits)
    d_back = geometry.oncoming_distance_to_back(estimate.p)
    if d_back <= 0.0:
        return Interval.EMPTY
    d_front = geometry.oncoming_distance_to_front(estimate.p)
    speed = -estimate.v
    accel = -estimate.a
    a_entry = min(accel + a_buf, max_speedup)
    v_entry_cap = min(speed + v_buf, max_speed)
    entry = arrival_time_under(
        d_front, speed, a_entry, max(v_entry_cap, min_speed), min_speed
    )
    if entry == NEVER:
        return Interval.EMPTY
    a_exit = max(accel - a_buf, max_brake)
    v_exit_floor = max(speed - v_buf, min_speed)
    exit_ = arrival_time_under(
        d_back, speed, a_exit, max_speed, min(v_exit_floor, max_speed)
    )
    return Interval(estimate.time + entry, estimate.time + max(exit_, entry))


def estimator_window(
    estimator: PassingWindowEstimator, estimate: FusedEstimate
) -> Interval:
    """``PassingWindowEstimator.window``: the buffers checked per call."""
    if estimator.aggressive:
        return aggressive_window(
            estimate,
            estimator.geometry,
            estimator.limits,
            estimator.a_buf,
            estimator.v_buf,
        )
    return conservative_window(estimate, estimator.geometry, estimator.limits)


# ----------------------------------------------------------------------
# Unsafe set (unsafe_set.py)
# ----------------------------------------------------------------------
def slack(
    position: float,
    velocity: float,
    geometry: LeftTurnGeometry,
    ego_limits: VehicleLimits,
) -> float:
    """The slack of Eq. (5)."""
    v = max(velocity, 0.0)
    if position <= geometry.p_front:
        braking = -0.5 * v * v / ego_limits.a_min
        return geometry.p_front - braking - position
    if position <= geometry.p_back:
        return position - geometry.p_back
    return math.inf


def ego_passing_window(
    time: float, position: float, velocity: float, geometry: LeftTurnGeometry
) -> Interval:
    """The ego's projected occupancy window at its current velocity."""
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
    """The worst one-step slack decrease (the ``X_b`` threshold)."""
    check_positive(dt_c, "dt_c")
    v = max(velocity, 0.0)
    travel = v * dt_c + 0.5 * ego_limits.a_max * dt_c * dt_c
    factor = 1.0 - ego_limits.a_max / ego_limits.a_min
    return travel * factor


def next_red_interval(light: TrafficLight, time: float) -> Interval:
    """``TrafficLight.next_red_interval``."""
    if time < light.offset:
        return Interval(-math.inf, light.offset)
    phase = (time - light.offset) % light.cycle
    cycle_start = time - phase
    red_start = cycle_start + light.green
    red_end = cycle_start + light.cycle
    return Interval(red_start, red_end)


def oncoming_window(
    self: LeftTurnSafetyModel, time: float, estimates: Mapping[int, FusedEstimate]
) -> Interval:
    """The conflict window: Eq. (7), or the signalized model's red phase."""
    if isinstance(self, SignalizedSafetyModel):
        return next_red_interval(self.light, time)
    if self.oncoming_index not in estimates:
        raise ScenarioError(
            f"no estimate for the oncoming vehicle "
            f"(index {self.oncoming_index})"
        )
    return conservative_window(
        estimates[self.oncoming_index], self.geometry, self.oncoming_limits
    )


def in_estimated_unsafe_set(
    self,
    time: float,
    ego: VehicleState,
    estimates: Mapping[int, FusedEstimate],
) -> bool:
    """Eq. (6): negative slack and intersecting windows."""
    if isinstance(self, MultiOncomingSafetyModel):
        return any(
            in_estimated_unsafe_set(model, time, ego, estimates)
            for model in self._models
        )
    if isinstance(self, CarFollowingSafetyModel):
        return _following_slack_of(self, ego, estimates) < 0.0
    s = slack(ego.position, ego.velocity, self.geometry, self.ego_limits)
    if s >= 0.0:
        return False
    ego_window = ego_passing_window(time, ego.position, ego.velocity, self.geometry)
    return ego_window.overlaps(oncoming_window(self, time, estimates))


def in_boundary_safe_set(
    self,
    time: float,
    ego: VehicleState,
    estimates: Mapping[int, FusedEstimate],
) -> bool:
    """``X_b``: one admissible step away from the unsafe set (Eq. (3))."""
    if isinstance(self, MultiOncomingSafetyModel):
        return any(
            in_boundary_safe_set(model, time, ego, estimates)
            for model in self._models
        )
    if isinstance(self, CarFollowingSafetyModel):
        s = _following_slack_of(self, ego, estimates)
        if s < 0.0:
            return True
        return s < _following_margin(self, ego, estimates[self.leader_index])
    position = ego.position
    if position > self.geometry.p_back:
        return False
    oncoming = oncoming_window(self, time, estimates)
    if oncoming.is_empty or oncoming.hi <= time:
        return False
    s = slack(position, ego.velocity, self.geometry, self.ego_limits)
    if position > self.geometry.p_front or s < 0.0:
        return _committed_needs_escape(self, time, ego, oncoming)
    if 0.0 <= s < boundary_slack_margin(ego.velocity, self.dt_c, self.ego_limits):
        ego_window = ego_passing_window(time, position, ego.velocity, self.geometry)
        if ego_window.overlaps(oncoming):
            return True
    return _some_step_commits_unsafely(self, time, ego, oncoming)


def _full_throttle_times(
    model: LeftTurnSafetyModel, time: float, position: float, velocity: float
) -> tuple:
    v = max(velocity, 0.0)
    d_front = model.geometry.ego_distance_to_front(position)
    d_back = model.geometry.ego_distance_to_back(position)
    entry = time + earliest_arrival_time(
        d_front, v, model.ego_limits.v_max, model.ego_limits.a_max
    )
    exit_ = time + earliest_arrival_time(
        d_back, v, model.ego_limits.v_max, model.ego_limits.a_max
    )
    return entry, exit_


def _committed_safe(
    model: LeftTurnSafetyModel,
    time: float,
    position: float,
    velocity: float,
    oncoming: Interval,
) -> bool:
    entry_ff, exit_ff = _full_throttle_times(model, time, position, velocity)
    return exit_ff <= oncoming.lo or entry_ff >= oncoming.hi


def _committed_needs_escape(
    model: LeftTurnSafetyModel, time: float, ego: VehicleState, oncoming: Interval
) -> bool:
    entry_ff, _ = _full_throttle_times(model, time, ego.position, ego.velocity)
    return entry_ff < oncoming.hi


def _some_step_commits_unsafely(
    model: LeftTurnSafetyModel, time: float, ego: VehicleState, oncoming: Interval
) -> bool:
    dt = model.dt_c
    v = max(ego.velocity, 0.0)
    for accel in (model.ego_limits.a_min, 0.0, model.ego_limits.a_max):
        v_next = min(
            max(v + accel * dt, max(model.ego_limits.v_min, 0.0)),
            model.ego_limits.v_max,
        )
        p_next = ego.position + v * dt + 0.5 * accel * dt * dt
        s_next = slack(p_next, v_next, model.geometry, model.ego_limits)
        if s_next < SLACK_ROUNDOFF and not _committed_safe(
            model, time + dt, p_next, v_next, oncoming
        ):
            return True
    return False


# ----------------------------------------------------------------------
# Command sanitising (planners/base.py)
# ----------------------------------------------------------------------
def clipped_command(acceleration: float, limits: VehicleLimits) -> float:
    """``clipped`` through ``isnan``/``isinf`` and ``clip_acceleration``."""
    a = float(acceleration)
    if math.isnan(a):
        return limits.a_min
    if math.isinf(a):
        return limits.a_max if a > 0 else limits.a_min
    return limits.clip_acceleration(a)


# ----------------------------------------------------------------------
# Car following (car_following.py)
# ----------------------------------------------------------------------
def following_slack(
    ego: VehicleState,
    leader_position_lo: float,
    leader_velocity_lo: float,
    p_gap: float,
    ego_limits: VehicleLimits,
    leader_limits: VehicleLimits,
) -> float:
    """Braking-envelope slack against the leader band's worst corner."""
    gap = leader_position_lo - ego.position
    v0 = max(ego.velocity, 0.0)
    vl = max(leader_velocity_lo, 0.0)
    ego_stop = v0 * v0 / (-2.0 * ego_limits.a_min)
    leader_stop = vl * vl / (-2.0 * leader_limits.a_min)
    return gap + leader_stop - ego_stop - p_gap


def _following_slack_of(
    model: CarFollowingSafetyModel,
    ego: VehicleState,
    estimates: Mapping[int, FusedEstimate],
) -> float:
    if model.leader_index not in estimates:
        raise ScenarioError(
            f"no estimate for the leader (index {model.leader_index})"
        )
    estimate = estimates[model.leader_index]
    return following_slack(
        ego,
        estimate.p_lo,
        estimate.v_lo,
        model.p_gap,
        model.ego_limits,
        model.leader_limits,
    )


def _following_margin(
    model: CarFollowingSafetyModel, ego: VehicleState, estimate: FusedEstimate
) -> float:
    """Worst one-step slack decrease (ego full throttle, leader full brake)."""
    dt = model.dt_c
    v0 = max(ego.velocity, 0.0)
    a_max = model.ego_limits.a_max
    b_e = -model.ego_limits.a_min
    ego_travel = v0 * dt + 0.5 * a_max * dt * dt
    ego_stop_growth = (2.0 * v0 * a_max * dt + a_max * a_max * dt * dt) / (
        2.0 * b_e
    )
    leader_credit_loss = max(estimate.v_hi, 0.0) * dt
    return ego_travel + ego_stop_growth + leader_credit_loss


# ----------------------------------------------------------------------
# NN planner (nn_planner.py)
# ----------------------------------------------------------------------
def nn_plan(self: NNPlanner, context: PlanningContext) -> float:
    """``NNPlanner.plan``: the window as an ``Interval``, then inference."""
    window = estimator_window(
        self.window_estimator, context.estimate_of(self._oncoming_index)
    )
    time = context.time
    if window.is_empty:
        rel_lo = rel_hi = WINDOW_PAST
    else:
        rel_lo = min(max(window.lo - time, WINDOW_PAST), WINDOW_FAR)
        rel_hi = min(max(window.hi - time, WINDOW_PAST), WINDOW_FAR)
    mean, std = self._mean, self._std
    x = np.array(
        [
            [
                (time - mean[0]) / std[0],
                (context.ego.position - mean[1]) / std[1],
                (context.ego.velocity - mean[2]) / std[2],
                (rel_lo - mean[3]) / std[3],
                (rel_hi - mean[4]) / std[4],
            ]
        ]
    )
    for dense, activation in chain_steps(layer_chain(self.model, N_FEATURES)):
        if dense is None:
            x = activation(x)
        else:
            x = x @ dense.weight + dense.bias
    return self._limits.clip_acceleration(float(x[0, 0]))


# ----------------------------------------------------------------------
# Emergency planner (emergency.py)
# ----------------------------------------------------------------------
def emergency_plan(self: LeftTurnEmergencyPlanner, context: PlanningContext) -> float:
    """``LeftTurnEmergencyPlanner.plan`` reading the context's ego state."""
    position = context.ego.position
    velocity = max(context.ego.velocity, 0.0)
    front_gap = self.geometry.ego_distance_to_front(position)
    limits = self._limits
    if front_gap > 0.0:
        braking_distance = -0.5 * velocity * velocity / limits.a_min
        if braking_distance > front_gap:
            return limits.a_max
        if velocity == 0.0:
            return 0.0
        target_gap = front_gap - self.stop_margin
        if target_gap <= 0.0:
            return limits.a_min
        required = -velocity * velocity / (2.0 * target_gap)
        return limits.clip_acceleration(required)
    if front_gap == 0.0:
        return limits.a_min if velocity > 0.0 else 0.0
    return limits.a_max


# ----------------------------------------------------------------------
# Monitor and compound planner (monitor.py, compound.py)
# ----------------------------------------------------------------------
def monitor_decision(
    model: LeftTurnSafetyModel, context: PlanningContext
) -> Tuple[bool, bool, bool]:
    """``RuntimeMonitor.evaluate``: each predicate in turn, on the context.

    Returns ``(use_emergency, in_boundary, in_unsafe)``.
    """
    in_boundary = in_boundary_safe_set(model, context.time, context.ego, context.estimates)
    in_unsafe = in_estimated_unsafe_set(
        model, context.time, context.ego, context.estimates
    )
    return (in_boundary or in_unsafe, in_boundary, in_unsafe)


def compound_plan(
    self: CompoundPlanner, context: PlanningContext
) -> Tuple[float, Tuple[bool, bool, bool]]:
    """``CompoundPlanner.plan`` with every layer on its oracle path.

    Returns the command and the monitor's decision as
    ``(use_emergency, in_boundary, in_unsafe)``.
    """

    ego = context.ego
    floats = (
        context.time, ego.position, ego.velocity, ego.acceleration,
        context.estimates,
    )

    def emergency() -> float:
        planner = self.emergency_planner
        if isinstance(planner, LeftTurnEmergencyPlanner):
            return emergency_plan(planner, context)
        return planner.plan_floats(*floats)

    decision = monitor_decision(self.monitor.safety_model, context)
    if decision[0]:
        command = emergency()
    else:
        try:
            embedded = self.nn_planner
            if isinstance(embedded, NNPlanner):
                command = nn_plan(embedded, context)
            else:
                command = embedded.plan_floats(*floats)
        except PlannerError:
            command = emergency()
    return clipped(command, self._limits), decision
