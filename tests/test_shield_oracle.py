"""Differential test: the float left-turn shield against its Interval oracle.

``repro.scenarios.left_turn`` evaluates the monitor and the NN planner's
window on plain floats: Eq. (7) once in ``conservative_bounds``, Eq. (8)
once in ``aggressive_bounds``, ``LeftTurnSafetyModel.decide`` on
``oncoming_bounds`` with the model's constants derived at construction,
and ``NNPlanner.plan_floats`` on ``PassingWindowEstimator.bounds``.
``tests/shield_oracle.py`` keeps the ``Interval`` path it replaced.
Agreement is exact (``==``, no tolerance): 10 000 random geometries,
limits, estimates and ego states through both windows (as
``Interval(*bounds)``; Eq. (8) with valid buffers, bad ones being
refused by the window estimator's constructor with the error the oracle
raises per call), the window estimator in both modes, and
``oncoming_bounds`` and ``decide`` of the left-turn and the signalized
model, with equal results or the same exception type and message.
``decide`` equals the oracle's two predicates in the monitor's order
(and any window it returns is the conflict window), and ``plan_floats``
of ``NNPlanner``, ``LeftTurnEmergencyPlanner`` and ``CompoundPlanner``
equals the oracle's ``plan`` on the context -- the compound's command
and decision both, whether its NN reads the monitor's window or its own
-- while the ``plan(context)`` the benchmark harness wraps equals
``plan_floats`` on its floats. The cases cover both branches of Eq.
(7)'s earliest arrival, empty and never-entered windows, every branch of
the boundary set (committed, margin, lookahead), invalid limits and
buffers, NaN clocks and a missing estimate; the test counts each and
requires all of them.

The multi-oncoming and car-following models' ``decide`` are held to
the oracle's predicates the same way, on their own seeded random
states with missing estimates among them.

The random cases reach ordinary values only, so the kernels whose
``max``/``min``/``isnan`` calls are written as conditionals are also
run on grids of NaN, both signed zeros, both infinities and exact ties
(a velocity at its cap, a distance at a branch threshold, a position on
a line of the area): the arrival-time primitives, the slack, the ego's
window, the ``X_b`` margin, both passing windows, ``decide`` and the
planners' command clip.  There the results must be identical, sign of
zero and NaN included.

A failure names the case (seed) and the quantity that disagreed.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import Counter
from functools import partial
from typing import List

import numpy as np
import pytest

from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError, ReproError
from repro.filtering.fusion import FusedEstimate
from repro.scenarios.car_following import CarFollowingSafetyModel
from repro.nn.layers import Dense, ReLU, Sequential, Tanh
from repro.dynamics.vehicle import VehicleModel
from repro.planners.base import PlanningContext, clipped
from repro.planners.nn_planner import FeatureScaler, NNPlanner
from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
from repro.scenarios.left_turn.geometry import (
    LeftTurnGeometry,
    arrival_time_under,
    earliest_arrival_time,
    latest_arrival_time,
)
from repro.scenarios.left_turn.multi import MultiOncomingSafetyModel
from repro.scenarios.left_turn.passing_time import (
    PassingWindowEstimator,
    aggressive_bounds,
    conservative_bounds,
    speed_limits,
)
from repro.scenarios.left_turn.unsafe_set import (
    LeftTurnSafetyModel,
    boundary_slack_margin,
    ego_passing_bounds,
    slack,
)
from repro.scenarios.signalized import SignalizedSafetyModel, TrafficLight
from repro.utils.intervals import Interval
from tests import shield_oracle

N_CASES = 10_000

#: Every situation the cases must reach at least this often.
MIN_COVERAGE = 50

_EGO_LIMITS = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)


def _network() -> NNPlanner:
    """A small random network behind the planner (any weights will do)."""
    gen = np.random.default_rng(3)
    model = Sequential(
        [
            Dense(5, 12, rng=gen),
            Tanh(),
            Dense(12, 8, rng=gen),
            ReLU(),
            Dense(8, 1, rng=gen),
        ]
    )
    scaler = FeatureScaler(
        mean=gen.normal(0.0, 5.0, size=5), std=gen.uniform(0.5, 10.0, size=5)
    )
    return NNPlanner(
        model=model,
        scaler=scaler,
        window_estimator=PassingWindowEstimator(
            LeftTurnGeometry(), VehicleLimits(-20.0, -2.0, -3.0, 3.0)
        ),
        limits=_EGO_LIMITS,
    )


_PLANNER = _network()


def _conservative(estimate, geometry, limits) -> Interval:
    """The Eq. (7) bounds as an ``Interval``, as the oracle returns them."""
    return Interval(*conservative_bounds(estimate, geometry, speed_limits(limits)))


def _aggressive(estimate, geometry, limits, a_buf, v_buf) -> Interval:
    """The Eq. (8) bounds as an ``Interval``, as the oracle returns them."""
    return Interval(
        *aggressive_bounds(estimate, geometry, speed_limits(limits), a_buf, v_buf)
    )


def _oncoming(model, time, estimates) -> Interval:
    """The model's conflict window as an ``Interval``."""
    return Interval(*model.oncoming_bounds(time, estimates))


def _outcome(fn, *args):
    """The result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ReproError as exc:
        return (type(exc), str(exc))


def _same(ours, theirs) -> bool:
    if isinstance(ours, float) and isinstance(theirs, float):
        return ours == theirs or (math.isnan(ours) and math.isnan(theirs))
    return type(ours) is type(theirs) and ours == theirs


def _limits(gen: np.random.Generator, seen: Counter) -> VehicleLimits:
    """Oncoming limits in raw coordinates; a few invalid for Eq. (7)."""
    draw = gen.random()
    if draw < 0.03:
        seen["oncoming v_max > 0"] += 1
        return VehicleLimits(
            -float(gen.uniform(5.0, 25.0)),
            float(gen.uniform(0.1, 3.0)),
            -float(gen.uniform(0.5, 5.0)),
            float(gen.uniform(0.5, 5.0)),
        )
    if draw < 0.06:
        seen["oncoming v_min = 0"] += 1
        return VehicleLimits(
            0.0, 0.0, -float(gen.uniform(0.5, 5.0)), float(gen.uniform(0.5, 5.0))
        )
    v_max = 0.0 if gen.random() < 0.2 else -float(gen.uniform(0.0, 4.0))
    return VehicleLimits(
        v_max - float(gen.uniform(2.0, 25.0)),
        v_max,
        -float(gen.uniform(0.5, 5.0)),
        float(gen.uniform(0.5, 5.0)),
    )


def _ego_limits(gen: np.random.Generator, seen: Counter) -> VehicleLimits:
    if gen.random() < 0.02:
        seen["ego v_max = inf"] += 1
        v_max = math.inf
    else:
        v_max = float(gen.uniform(5.0, 30.0))
    v_min = 0.0 if gen.random() < 0.8 else -float(gen.uniform(0.0, 3.0))
    return VehicleLimits(
        v_min, v_max, -float(gen.uniform(1.0, 9.0)), float(gen.uniform(0.5, 6.0))
    )


def _estimate(
    gen: np.random.Generator, geometry: LeftTurnGeometry, time: float
) -> FusedEstimate:
    center = float(
        gen.uniform(geometry.oncoming_back - 10.0, geometry.oncoming_front + 60.0)
    )
    p_lo = center - float(gen.exponential(2.0))
    p_hi = center + float(gen.exponential(2.0))
    speed = float(gen.uniform(-2.0, 25.0))
    v_lo = -speed - float(gen.exponential(1.0))
    v_hi = -speed + float(gen.exponential(1.0))
    return FusedEstimate(
        time,
        p_lo,
        p_hi,
        v_lo,
        v_hi,
        float(gen.uniform(p_lo, p_hi)),
        float(gen.uniform(v_lo, v_hi)),
        float(gen.uniform(-4.0, 4.0)),
    )


def _ego(
    gen: np.random.Generator,
    geometry: LeftTurnGeometry,
    limits: VehicleLimits,
    dt_c: float,
) -> VehicleState:
    """An ego state, mostly with its slack near the ``X_b`` margin."""
    top = 25.0 if math.isinf(limits.v_max) else limits.v_max + 2.0
    velocity = float(gen.uniform(-1.0, top))
    draw = gen.random()
    if draw < 0.5:
        v = max(velocity, 0.0)
        margin = shield_oracle.boundary_slack_margin(velocity, dt_c, limits)
        braking = -0.5 * v * v / limits.a_min
        target = float(gen.uniform(-margin, 2.0 * margin))
        position = geometry.p_front - braking - target
    elif draw < 0.7:
        position = float(gen.uniform(geometry.p_front, geometry.p_back))
    elif draw < 0.75:
        position = float(gen.uniform(geometry.p_back, geometry.p_back + 5.0))
    else:
        position = float(gen.uniform(geometry.p_front - 60.0, geometry.p_front))
    return VehicleState(position, velocity, float(gen.uniform(-6.0, 4.0)))


def _geometry(gen: np.random.Generator) -> LeftTurnGeometry:
    """A random left-turn geometry."""
    p_front = float(gen.uniform(-5.0, 10.0))
    p_back = p_front + float(gen.uniform(2.0, 15.0))
    oncoming_back = float(gen.uniform(-5.0, 10.0))
    return LeftTurnGeometry(
        p_front=p_front,
        p_back=p_back,
        oncoming_front=oncoming_back + float(gen.uniform(2.0, 15.0)),
        oncoming_back=oncoming_back,
        p_target=p_back + float(gen.uniform(0.0, 10.0)),
    )


def _random_case(seed: int, seen: Counter) -> List[str]:
    """Run one random shield input through both paths.

    Returns the disagreements found and tallies what the case covered
    in ``seen``.
    """
    gen = np.random.default_rng(seed)
    geometry = _geometry(gen)
    limits = _limits(gen, seen)
    ego_limits = _ego_limits(gen, seen)
    dt_c = float(gen.uniform(0.01, 0.2))
    time = float(gen.uniform(0.0, 20.0))
    if gen.random() < 0.01:
        time = math.nan
        seen["NaN clock"] += 1
    estimate = _estimate(gen, geometry, time)
    estimates = {1: estimate}
    if gen.random() < 0.01:
        estimates = {}
        seen["missing estimate"] += 1
    ego = _ego(gen, geometry, ego_limits, dt_c)
    a_buf = float(gen.uniform(0.0, 1.5))
    v_buf = float(gen.uniform(0.0, 3.0))
    bad_buffer = bool(gen.random() < 0.02)
    if bad_buffer:
        a_buf = math.nan if gen.random() < 0.5 else -a_buf - 0.1
        seen["bad buffer"] += 1
    light = TrafficLight(
        green=float(gen.uniform(1.0, 10.0)),
        red=float(gen.uniform(1.0, 10.0)),
        offset=float(gen.uniform(-5.0, 10.0)),
    )
    aggressive = bool(gen.random() < 0.5)
    stop_margin = float(gen.uniform(0.0, 0.2))

    _tally(seen, geometry, limits, ego_limits, dt_c, time, estimate, ego)
    if estimate.p > geometry.oncoming_back:
        eq8_window = _outcome(
            shield_oracle.aggressive_window, estimate, geometry, limits, a_buf, v_buf
        )
        if eq8_window == Interval.EMPTY:
            seen["Eq. (8) never entered"] += 1
    disagreements = []
    left_turn = LeftTurnSafetyModel(geometry, ego_limits, limits, dt_c)
    signalized = SignalizedSafetyModel(
        geometry, ego_limits, limits, dt_c, light=light
    )

    context = PlanningContext(time=time, ego=ego, estimates=estimates)
    checks = [
        ("conservative_bounds", _conservative,
         shield_oracle.conservative_window, (estimate, geometry, limits)),
    ]
    if not bad_buffer:
        checks.append(
            ("aggressive_bounds", _aggressive, shield_oracle.aggressive_window,
             (estimate, geometry, limits, a_buf, v_buf))
        )
    try:
        estimator = PassingWindowEstimator(geometry, limits, aggressive, a_buf, v_buf)
    except ReproError as exc:
        # Bad buffers now fail at construction, with the error the
        # oracle's window raised on every call.
        error = (type(exc), str(exc))
        checks.append(
            ("PassingWindowEstimator", lambda *args: error,
             shield_oracle.aggressive_window,
             (estimate, geometry, limits, a_buf, v_buf))
        )
    else:
        planner = _PLANNER.with_window_estimator(estimator)
        emergency = LeftTurnEmergencyPlanner(geometry, ego_limits, stop_margin)
        compound = CompoundPlanner(
            planner, emergency, RuntimeMonitor(left_turn), ego_limits
        )
        checks += [
            (name, fast, slow, (context,))
            for name, fast, slow in _float_entry_checks(
                planner, emergency, compound, seen
            )
        ]
        checks += [
            ("estimator.window", estimator.window,
             partial(shield_oracle.estimator_window, estimator), (estimate,)),
            ("estimator.bounds", lambda e: Interval(*estimator.bounds(e)),
             partial(shield_oracle.estimator_window, estimator), (estimate,)),
            ("NNPlanner.plan", planner.plan,
             partial(shield_oracle.nn_plan, planner), (context,)),
        ]
    for name, model in (("left turn", left_turn), ("signalized", signalized)):
        checks.append(
            (f"{name} decide", partial(_decide, model),
             partial(_predicates, model), (time, ego, estimates))
        )
        if not _window_consistent(model, time, ego, estimates, seen):
            disagreements.append(f"case seed={seed} {name} decide window")
        checks.append(
            (f"{name} oncoming_bounds", partial(_oncoming, model),
             partial(shield_oracle.oncoming_window, model), (time, estimates))
        )
    for name, fast, slow, args in checks:
        ours = _outcome(fast, *args)
        theirs = _outcome(slow, *args)
        if not _same(ours, theirs):
            disagreements.append(
                f"case seed={seed} {name}: fast={ours!r} oracle={theirs!r}"
            )
        elif isinstance(theirs, tuple):
            seen["raised"] += 1
    return disagreements


def _decide(model, time, ego, estimates):
    """``decide`` on the ego's floats: the two memberships."""
    in_boundary, in_unsafe, _ = model.decide(
        time, ego.position, ego.velocity, estimates
    )
    return in_boundary, in_unsafe


def _predicates(model, time, ego, estimates):
    """The oracle's two predicates, in the monitor's order."""
    return (
        shield_oracle.in_boundary_safe_set(model, time, ego, estimates),
        shield_oracle.in_estimated_unsafe_set(model, time, ego, estimates),
    )


def _window_consistent(model, time, ego, estimates, seen) -> bool:
    """A window ``decide`` returns is the oracle's conflict window."""
    try:
        _, _, window = model.decide(time, ego.position, ego.velocity, estimates)
    except ReproError:
        return True
    if window is None:
        return True
    seen["decide: window evaluated"] += 1
    return Interval(*window) == shield_oracle.oncoming_window(model, time, estimates)


def _floats(planner):
    """``planner.plan_floats`` on the floats of a context."""

    def plan(context):
        ego = context.ego
        return planner.plan_floats(
            context.time, ego.position, ego.velocity, ego.acceleration,
            context.estimates,
        )

    return plan


def _float_entry_checks(planner, emergency, compound, seen) -> list:
    """``plan_floats`` of the three planners against their oracles.

    The NN and emergency planners also check that their ``plan(context)``
    is ``plan_floats`` on the context's floats.
    """

    def compound_floats(context):
        command = _floats(compound)(context)
        decision = compound.last_decision
        if decision.use_emergency:
            seen["compound: emergency"] += 1
        elif compound._nn_shares_window:
            seen["compound: NN on the monitor's window"] += 1
        else:
            seen["compound: NN on its own window"] += 1
        return command, (
            decision.use_emergency, decision.in_boundary, decision.in_unsafe
        )

    return [
        ("NNPlanner.plan_floats", _floats(planner),
         partial(shield_oracle.nn_plan, planner)),
        ("NNPlanner.plan", planner.plan, _floats(planner)),
        ("LeftTurnEmergencyPlanner.plan_floats", _floats(emergency),
         partial(shield_oracle.emergency_plan, emergency)),
        ("LeftTurnEmergencyPlanner.plan", emergency.plan, _floats(emergency)),
        ("CompoundPlanner.plan_floats", compound_floats,
         partial(shield_oracle.compound_plan, compound)),
    ]


def _tally(seen, geometry, limits, ego_limits, dt_c, time, estimate, ego) -> None:
    """Count the Eq. (7) and boundary-set branches the case reaches."""
    try:
        window = shield_oracle.conservative_window(estimate, geometry, limits)
    except ReproError:
        return
    if estimate.p_hi - geometry.oncoming_back <= 0.0:
        seen["window cleared"] += 1
        return
    seen["window non-empty"] += 1
    distance = estimate.p_lo - geometry.oncoming_front
    v_cap = -limits.v_min
    a_cap = -limits.a_min
    v = max(0.0, min(-estimate.v_lo, v_cap))
    if distance > 0.0:
        d_th = (v_cap * v_cap - v * v) / (2.0 * a_cap)
        seen["Eq. (7) cap branch" if distance > d_th else "Eq. (7) no-cap branch"] += 1
    if math.isinf(ego_limits.v_max) or ego.position > geometry.p_back:
        return
    if window.hi <= time:
        return
    model = LeftTurnSafetyModel(geometry, ego_limits, limits, dt_c)
    s = shield_oracle.slack(ego.position, ego.velocity, geometry, ego_limits)
    if ego.position > geometry.p_front or s < 0.0:
        seen["boundary: committed branch"] += 1
        return
    margin_hit = 0.0 <= s < shield_oracle.boundary_slack_margin(
        ego.velocity, dt_c, ego_limits
    ) and shield_oracle.ego_passing_window(
        time, ego.position, ego.velocity, geometry
    ).overlaps(window)
    lookahead = shield_oracle._some_step_commits_unsafely(model, time, ego, window)
    if margin_hit and not lookahead:
        seen["boundary: margin decides"] += 1
    elif lookahead:
        seen["boundary: lookahead"] += 1
    elif not margin_hit:
        seen["boundary: safe approach"] += 1


def _multi_case(seed: int, seen: Counter) -> List[str]:
    """``MultiOncomingSafetyModel.decide`` against the oracle's predicates."""
    gen = np.random.default_rng(seed)
    geometry = _geometry(gen)
    limits = _limits(gen, seen)
    ego_limits = _ego_limits(gen, seen)
    dt_c = float(gen.uniform(0.01, 0.2))
    time = float(gen.uniform(0.0, 20.0))
    indices = tuple(range(1, 2 + int(gen.integers(0, 3))))
    estimates = {}
    for index in indices:
        if gen.random() < 0.1:
            seen["missing estimate"] += 1
        else:
            estimates[index] = _estimate(gen, geometry, time)
    ego = _ego(gen, geometry, ego_limits, dt_c)
    model = MultiOncomingSafetyModel(geometry, ego_limits, limits, dt_c, indices)
    before = seen["raised"]
    disagreements = _decide_check(
        f"case seed={seed} multi-oncoming", model, time, ego, estimates, seen
    )
    if len(estimates) < len(indices) and seen["raised"] == before:
        # A vehicle's estimate is missing, but no membership needed it.
        seen["missing estimate not read"] += 1
    return disagreements


def _following_case(seed: int, seen: Counter) -> List[str]:
    """``CarFollowingSafetyModel.decide`` against the oracle's predicates."""
    gen = np.random.default_rng(seed)
    ego_limits = VehicleLimits(
        0.0, 30.0, -float(gen.uniform(1.0, 9.0)), float(gen.uniform(0.5, 6.0))
    )
    leader_limits = VehicleLimits(
        0.0, 30.0, -float(gen.uniform(1.0, 9.0)), float(gen.uniform(0.5, 6.0))
    )
    model = CarFollowingSafetyModel(
        p_gap=float(gen.uniform(1.0, 10.0)),
        ego_limits=ego_limits,
        leader_limits=leader_limits,
        dt_c=float(gen.uniform(0.01, 0.2)),
    )
    time = float(gen.uniform(0.0, 20.0))
    ego = VehicleState(
        float(gen.uniform(-20.0, 20.0)),
        float(gen.uniform(-1.0, 32.0)),
        float(gen.uniform(-6.0, 4.0)),
    )
    estimates = {}
    if gen.random() < 0.05:
        seen["missing estimate"] += 1
    else:
        center = ego.position + float(gen.uniform(-5.0, 80.0))
        p_lo = center - float(gen.exponential(2.0))
        p_hi = center + float(gen.exponential(2.0))
        speed = float(gen.uniform(-1.0, 30.0))
        v_lo = speed - float(gen.exponential(1.0))
        v_hi = speed + float(gen.exponential(1.0))
        estimates[1] = FusedEstimate(time, p_lo, p_hi, v_lo, v_hi, center, speed, 0.0)
    return _decide_check(
        f"case seed={seed} car following", model, time, ego, estimates, seen
    )


def _decide_check(name, model, time, ego, estimates, seen) -> List[str]:
    """``decide``'s memberships or error against the oracle's predicates."""
    ours = _outcome(_decide, model, time, ego, estimates)
    theirs = _outcome(_predicates, model, time, ego, estimates)
    if not _same(ours, theirs):
        return [f"{name} decide: fast={ours!r} oracle={theirs!r}"]
    if isinstance(theirs[0], type):
        seen["raised"] += 1
    else:
        seen[{
            (False, False): "clear",
            (True, False): "boundary only",
            (True, True): "boundary and unsafe",
            (False, True): "unsafe only",
        }[theirs]] += 1
    return []


class TestShieldOracle:
    def test_random_cases_match_oracle(self):
        seen: Counter = Counter()
        disagreements: List[str] = []
        for seed in range(N_CASES):
            disagreements.extend(_random_case(seed, seen))
        assert not disagreements, (
            f"{len(disagreements)} shield results disagree with the Interval "
            "oracle; first ones:\n" + "\n".join(disagreements[:5])
        )
        required = [
            "oncoming v_max > 0",
            "oncoming v_min = 0",
            "ego v_max = inf",
            "NaN clock",
            "missing estimate",
            "bad buffer",
            "raised",
            "window cleared",
            "Eq. (8) never entered",
            "window non-empty",
            "Eq. (7) cap branch",
            "Eq. (7) no-cap branch",
            "boundary: committed branch",
            "boundary: margin decides",
            "boundary: lookahead",
            "boundary: safe approach",
            "decide: window evaluated",
            "compound: emergency",
            "compound: NN on the monitor's window",
            "compound: NN on its own window",
        ]
        thin = {name: seen[name] for name in required if seen[name] < MIN_COVERAGE}
        assert not thin, f"situations reached too rarely: {thin}"

    def test_model_constants_are_not_fields(self):
        """Equality and repr see the dataclass fields only; copies keep the rest."""
        model = LeftTurnSafetyModel(
            LeftTurnGeometry(), _EGO_LIMITS, VehicleLimits(-20.0, -2.0, -3.0, 3.0), 0.05
        )
        twin = LeftTurnSafetyModel(
            LeftTurnGeometry(), _EGO_LIMITS, VehicleLimits(-20.0, -2.0, -3.0, 3.0), 0.05
        )
        assert model == twin and hash(model) == hash(twin)
        assert "_lookahead" not in repr(model)
        # deepcopy goes through __reduce_ex__, as pickling does.
        clone = copy.deepcopy(model)
        assert clone == model
        assert clone._lookahead == model._lookahead


class TestOtherSafetyModelsOracle:
    """``decide`` of the multi-oncoming and car-following models."""

    N = 3_000

    def test_multi_oncoming_decide_matches_oracle(self):
        seen: Counter = Counter()
        disagreements: List[str] = []
        for seed in range(self.N):
            disagreements.extend(_multi_case(seed, seen))
        assert not disagreements, "\n".join(disagreements[:5])
        required = ["missing estimate", "raised", "missing estimate not read",
                    "clear", "boundary only", "boundary and unsafe"]
        thin = {name: seen[name] for name in required if seen[name] < MIN_COVERAGE}
        assert not thin, f"situations reached too rarely: {thin}"

    def test_car_following_decide_matches_oracle(self):
        seen: Counter = Counter()
        disagreements: List[str] = []
        for seed in range(self.N):
            disagreements.extend(_following_case(seed, seen))
        assert not disagreements, "\n".join(disagreements[:5])
        required = ["missing estimate", "raised", "clear", "boundary only",
                    "boundary and unsafe"]
        thin = {name: seen[name] for name in required if seen[name] < MIN_COVERAGE}
        assert not thin, f"situations reached too rarely: {thin}"


# ----------------------------------------------------------------------
# Edge semantics of the conditional clips
# ----------------------------------------------------------------------
_NAN = math.nan
_INF = math.inf

#: NaN, both signed zeros and both infinities.
_SPECIAL = (_NAN, 0.0, -0.0, _INF, -_INF)


def _identical(ours, theirs) -> bool:
    """Equal, with the same sign of zero, or NaN on both sides.

    Tuples (results or ``(type, message)`` errors) compare item by item.
    """
    if isinstance(ours, tuple) and isinstance(theirs, tuple):
        return len(ours) == len(theirs) and all(map(_identical, ours, theirs))
    if isinstance(ours, float) and isinstance(theirs, float):
        if math.isnan(ours) or math.isnan(theirs):
            return math.isnan(ours) and math.isnan(theirs)
        return ours == theirs and math.copysign(1.0, ours) == math.copysign(
            1.0, theirs
        )
    return type(ours) is type(theirs) and ours == theirs


def _grid_disagreements(name, fast, slow, cases, seen) -> List[str]:
    """Every case through both functions; identical results or errors."""
    disagreements = []
    for args in cases:
        ours = _outcome(fast, *args)
        theirs = _outcome(slow, *args)
        if not _identical(ours, theirs):
            disagreements.append(
                f"{name}{args!r}: fast={ours!r} oracle={theirs!r}"
            )
        raised = isinstance(theirs, tuple) and isinstance(theirs[0], type)
        seen[f"{name}: {'raised' if raised else 'returned'}"] += 1
    return disagreements


def _bounds(window: Interval) -> tuple:
    return window.lo, window.hi


class TestEdgeSemantics:
    """The conditional clips keep the builtins' NaN and signed-zero results."""

    def test_arrival_primitives(self):
        seen: Counter = Counter()
        distances = (*_SPECIAL, -1.0, 1.0, 2.0)
        velocities = (*_SPECIAL, -2.0, 1.0, 2.0, 3.0, 5.0)
        # (v=1, cap 3, a=2) and (v=3, floor 1, decel 2) put d_th at 2.0;
        # (v=2, decel 2) stops in exactly 1.0; v=3 ties the cap 3.0.
        problems = _grid_disagreements(
            "earliest_arrival_time", earliest_arrival_time,
            shield_oracle.earliest_arrival_time,
            itertools.product(distances, velocities, (3.0, *_SPECIAL),
                              (2.0, *_SPECIAL)),
            seen,
        )
        problems += _grid_disagreements(
            "latest_arrival_time", latest_arrival_time,
            shield_oracle.latest_arrival_time,
            itertools.product(distances, velocities, (1.0, *_SPECIAL),
                              (-2.0, *_SPECIAL)),
            seen,
        )
        problems += _grid_disagreements(
            "arrival_time_under", arrival_time_under,
            shield_oracle.arrival_time_under,
            itertools.product(distances, velocities, (2.0, -2.0, *_SPECIAL),
                              (3.0, *_SPECIAL), (1.0, 3.0, *_SPECIAL)),
            seen,
        )
        assert not problems, f"{len(problems)} disagree:\n" + "\n".join(problems[:5])
        thin = [name for name in ("earliest_arrival_time", "latest_arrival_time",
                                  "arrival_time_under")
                for kind in ("raised", "returned") if not seen[f"{name}: {kind}"]]
        assert not thin, f"never reached: {thin}"

    def test_slack_window_and_margin(self):
        seen: Counter = Counter()
        geometry = LeftTurnGeometry()
        positions = (*_SPECIAL, geometry.p_front, geometry.p_back, 10.0)
        velocities = (*_SPECIAL, -1.0, 2.0, 20.0)
        limits = (_EGO_LIMITS, VehicleLimits(-0.0, _INF, -_INF, _INF))
        problems = _grid_disagreements(
            "slack", slack, shield_oracle.slack,
            itertools.product(positions, velocities, (geometry,), limits), seen,
        )
        problems += _grid_disagreements(
            "ego_passing_bounds",
            lambda *args: _bounds(Interval(*ego_passing_bounds(*args))),
            lambda *args: _bounds(shield_oracle.ego_passing_window(*args)),
            itertools.product((1.0, *_SPECIAL), positions, velocities, (geometry,)),
            seen,
        )
        problems += _grid_disagreements(
            "boundary_slack_margin", boundary_slack_margin,
            shield_oracle.boundary_slack_margin,
            itertools.product(velocities, (0.05, *_SPECIAL), limits), seen,
        )
        assert not problems, f"{len(problems)} disagree:\n" + "\n".join(problems[:5])
        assert seen["ego_passing_bounds: raised"] and seen["slack: returned"]

    def test_passing_windows(self):
        seen: Counter = Counter()
        geometry = LeftTurnGeometry()
        # The paper's limits, a speed floor of -0.0 (raw v_max 0.0) and
        # unbounded ones (the checked primitives raise).
        all_limits = (
            VehicleLimits(-20.0, -2.0, -3.0, 3.0),
            VehicleLimits(-20.0, 0.0, -3.0, 3.0),
            VehicleLimits(-_INF, -2.0, -_INF, _INF),
        )
        positions = (-_INF, -0.0, 0.0, geometry.oncoming_back,
                     geometry.oncoming_front, 30.0, _INF)
        velocities = (-_INF, -20.0, -12.0, -2.0, -0.0, 0.0, _INF)
        estimates = []
        for time in (1.0, -0.0, _NAN, _INF):
            for p_lo, p_hi in itertools.combinations_with_replacement(positions, 2):
                for v_lo, v_hi in itertools.combinations_with_replacement(
                    velocities, 2
                ):
                    # Nominal states at the band's ends, and one apart.
                    for p, v in ((p_lo, v_lo), (p_hi, v_hi), (10.0, -11.0)):
                        if math.isinf(p) or math.isinf(v):
                            continue
                        estimates.append(FusedEstimate.of(
                            time, p_lo, p_hi, v_lo, v_hi, p=p, v=v, a=-0.0
                        ))
        problems = []
        for limits in all_limits:
            problems += _grid_disagreements(
                "conservative_bounds",
                lambda e: _bounds(_conservative(e, geometry, limits)),
                lambda e: _bounds(shield_oracle.conservative_window(e, geometry, limits)),
                ((e,) for e in estimates), seen,
            )
            for a_buf, v_buf in ((0.0, 0.0), (-0.0, 1.0), (0.5, -0.0)):
                problems += _grid_disagreements(
                    "aggressive_bounds",
                    lambda e: _bounds(_aggressive(e, geometry, limits, a_buf, v_buf)),
                    lambda e: _bounds(shield_oracle.aggressive_window(
                        e, geometry, limits, a_buf, v_buf)),
                    ((e,) for e in estimates), seen,
                )
        assert not problems, f"{len(problems)} disagree:\n" + "\n".join(problems[:5])
        assert seen["conservative_bounds: raised"] and seen["aggressive_bounds: raised"]

    def test_decide_on_edge_states(self):
        seen: Counter = Counter()
        geometry = LeftTurnGeometry()
        model = LeftTurnSafetyModel(
            geometry, _EGO_LIMITS, VehicleLimits(-20.0, -2.0, -3.0, 3.0), 0.05
        )
        estimates = [
            FusedEstimate.of(0.0, 30.0, 32.0, -12.0, -10.0, p=31.0, v=-11.0, a=0.0),
            FusedEstimate.of(0.0, geometry.oncoming_front, geometry.oncoming_front,
                             -20.0, -2.0, p=geometry.oncoming_front, v=-2.0, a=-0.0),
            FusedEstimate.of(0.0, -_INF, _INF, -_INF, _INF, p=10.0, v=-0.0, a=0.0),
        ]
        problems = []
        for time in (0.0, -0.0, 1.0, _INF):
            for position in (*_SPECIAL, geometry.p_front, geometry.p_back, -1.0, 4.0):
                for velocity in (*_SPECIAL, -1.0, 20.0, 25.0):
                    # A NaN state cannot be built; the oracle only reads
                    # its position and velocity.
                    ego = object.__new__(VehicleState)
                    object.__setattr__(ego, "position", position)
                    object.__setattr__(ego, "velocity", velocity)
                    object.__setattr__(ego, "acceleration", 0.0)
                    for estimate in estimates:
                        problems += _decide_check(
                            f"decide t={time} ego={ego}", model, time, ego,
                            {1: estimate}, seen,
                        )
        assert not problems, f"{len(problems)} disagree:\n" + "\n".join(problems[:5])
        thin = [k for k in ("raised", "clear", "boundary only", "boundary and unsafe")
                if not seen[k]]
        assert not thin, f"never reached: {thin}"

    def test_command_clip(self):
        seen: Counter = Counter()
        commands = (*_SPECIAL, -7.0, -6.0, 1.0, 4.0, 5.0)
        all_limits = (_EGO_LIMITS, VehicleLimits(-0.0, _INF, -_INF, _INF))
        problems = _grid_disagreements(
            "clipped", clipped, shield_oracle.clipped_command,
            itertools.product(commands, all_limits), seen,
        )
        # VehicleModel.advance applies clip_acceleration's conditionals; a
        # NaN command passes them and fails the state's NaN check.
        for limits in all_limits:
            problems += _grid_disagreements(
                "advance command",
                lambda a: VehicleModel(limits).advance(1.0, 0.0, a, 0.05)[2],
                limits.clip_acceleration,
                ((a,) for a in commands if not math.isnan(a)), seen,
            )
            with pytest.raises(ConfigurationError, match="NaN"):
                VehicleModel(limits).advance(1.0, 0.0, _NAN, 0.05)
            assert math.isnan(limits.clip_acceleration(_NAN))
        assert not problems, f"{len(problems)} disagree:\n" + "\n".join(problems[:5])
