"""Differential test: the float left-turn shield against its Interval oracle.

``repro.scenarios.left_turn`` evaluates the monitor and the NN planner's
window on plain floats: Eq. (7) once in ``conservative_bounds``, Eq. (8)
once in ``aggressive_bounds``, the predicates of ``LeftTurnSafetyModel``
on ``oncoming_bounds`` with the model's constants derived at
construction, and ``NNPlanner.plan`` on
``PassingWindowEstimator.bounds``. ``tests/shield_oracle.py`` keeps the
``Interval`` path it replaced. Agreement is exact (``==``, no
tolerance): 10 000 random geometries, limits, estimates and ego states
through both windows (as ``Interval(*bounds)``; Eq. (8) with valid
buffers, bad ones being refused by the window estimator's constructor
with the error the oracle raises per call), the window estimator in both
modes, ``oncoming_bounds`` and both predicates of the left-turn and the
signalized model, and ``NNPlanner.plan``, with equal results or the same
exception type and message. The float entry points are held to the same
standard: ``decide`` equals the two predicates in the monitor's order
(and any window it returns is the conflict window), and ``plan_floats``
of ``NNPlanner``, ``LeftTurnEmergencyPlanner`` and ``CompoundPlanner``
equals the oracle's ``plan`` on the context -- the compound's command
and decision both, whether its NN reads the monitor's window or its own
-- while ``plan(context)`` equals ``plan_floats`` on its floats. The
cases cover both branches of Eq. (7)'s earliest arrival, empty and
never-entered windows, every branch of the boundary set (committed,
margin, lookahead), invalid limits and buffers, NaN clocks and a missing
estimate; the test counts each and requires all of them.

A failure names the case (seed) and the quantity that disagreed.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from functools import partial
from typing import List

import numpy as np

from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ReproError
from repro.filtering.fusion import FusedEstimate
from repro.nn.layers import Dense, ReLU, Sequential, Tanh
from repro.planners.base import PlanningContext
from repro.planners.nn_planner import FeatureScaler, NNPlanner
from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
from repro.scenarios.left_turn.geometry import LeftTurnGeometry
from repro.scenarios.left_turn.passing_time import (
    PassingWindowEstimator,
    aggressive_bounds,
    conservative_bounds,
    speed_limits,
)
from repro.scenarios.left_turn.unsafe_set import LeftTurnSafetyModel
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
    nominal = VehicleState(
        float(gen.uniform(p_lo, p_hi)),
        float(gen.uniform(v_lo, v_hi)),
        float(gen.uniform(-4.0, 4.0)),
    )
    return FusedEstimate(
        time=time,
        position=Interval(p_lo, p_hi),
        velocity=Interval(v_lo, v_hi),
        nominal=nominal,
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


def _random_case(seed: int, seen: Counter) -> List[str]:
    """Run one random shield input through both paths.

    Returns the disagreements found and tallies what the case covered
    in ``seen``.
    """
    gen = np.random.default_rng(seed)
    p_front = float(gen.uniform(-5.0, 10.0))
    p_back = p_front + float(gen.uniform(2.0, 15.0))
    oncoming_back = float(gen.uniform(-5.0, 10.0))
    geometry = LeftTurnGeometry(
        p_front=p_front,
        p_back=p_back,
        oncoming_front=oncoming_back + float(gen.uniform(2.0, 15.0)),
        oncoming_back=oncoming_back,
        p_target=p_back + float(gen.uniform(0.0, 10.0)),
    )
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
    if estimate.nominal.position > geometry.oncoming_back:
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
        for method in ("in_estimated_unsafe_set", "in_boundary_safe_set"):
            checks.append(
                (f"{name} {method}", getattr(model, method),
                 partial(getattr(shield_oracle, method), model),
                 (time, ego, estimates))
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
    """``plan_floats`` of the three float planners against their oracles.

    Each also checks that ``plan(context)`` is ``plan_floats`` on the
    context's floats.
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
        ("CompoundPlanner.plan", compound.plan, _floats(compound)),
    ]


def _tally(seen, geometry, limits, ego_limits, dt_c, time, estimate, ego) -> None:
    """Count the Eq. (7) and boundary-set branches the case reaches."""
    try:
        window = shield_oracle.conservative_window(estimate, geometry, limits)
    except ReproError:
        return
    if estimate.position.hi - geometry.oncoming_back <= 0.0:
        seen["window cleared"] += 1
        return
    seen["window non-empty"] += 1
    distance = estimate.position.lo - geometry.oncoming_front
    v_cap = -limits.v_min
    a_cap = -limits.a_min
    v = max(0.0, min(-estimate.velocity.lo, v_cap))
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
