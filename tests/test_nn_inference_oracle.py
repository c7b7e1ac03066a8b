"""Differential test: the planner's NN inference path against the training path.

``NNPlanner.plan_from_window`` builds the five features and their
standardisation in floats and runs the layers as bare ``x @ W + b`` and
activation calls on the model's live arrays.  Its oracle is the path it
replaced, which stays the training path:
``planner_features`` -> ``FeatureScaler.transform`` -> ``as_batch`` ->
``Sequential.forward``.  The two must agree exactly (``==``; NaN equals
NaN) on 10 000 random inputs per network, covering empty windows,
relative delays clipped at ``WINDOW_PAST``/``WINDOW_FAR``, infinite
window bounds and NaN-producing weights, for networks of both trained
styles and a ``Sigmoid``/``Identity`` stack.  The inference path must
also see weights updated in place, leave the weights, biases and
training caches alone, give the same outputs after a pickle round trip
or a deep copy (alone and inside a ``CompoundPlanner``), agree with the
oracle when two planners sharing one network are called interleaved,
and reject a malformed layer chain when the planner is built.
"""

from __future__ import annotations

import copy
import math
import pickle  # safelint: disable=SFL009 - the round trip is under test
from collections import Counter

import numpy as np
import pytest

from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import build_trio
from repro.filtering.fusion import FusedEstimate
from repro.nn.layers import Dense, Identity, Layer, ReLU, Sequential, Sigmoid, Tanh
from repro.nn.losses import MSELoss
from repro.nn.tensor_ops import as_batch
from repro.planners.base import PlanningContext
from repro.planners.nn_planner import (
    WINDOW_FAR,
    WINDOW_PAST,
    FeatureScaler,
    NNPlanner,
    planner_features,
)
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.utils.intervals import Interval

N_CASES = 10_000


def _oracle(planner: NNPlanner, time, position, velocity, window) -> float:
    features = planner_features(time, position, velocity, window)
    scaled = planner.scaler.transform(features)
    output = planner.model.forward(as_batch(scaled))
    return planner._limits.clip_acceleration(float(output[0, 0]))


def _same(fast: float, slow: float) -> bool:
    return type(fast) is type(slow) and (fast == slow or (fast != fast and slow != slow))


def _planner(model, scenario, scaler=None) -> NNPlanner:
    if scaler is None:
        rng = np.random.default_rng(5)
        scaler = FeatureScaler(
            mean=rng.normal(0.0, 5.0, size=5), std=rng.uniform(0.5, 10.0, size=5)
        )
    return NNPlanner(
        model=model,
        scaler=scaler,
        window_estimator=PassingWindowEstimator(
            scenario.geometry, scenario.oncoming_limits
        ),
        limits=scenario.ego_limits,
    )


def _window(gen: np.random.Generator, time: float, counts: Counter) -> Interval:
    kind = gen.integers(6)
    if kind == 0:
        counts["empty"] += 1
        return Interval.EMPTY
    if kind == 1:
        counts["infinite"] += 1
        hi = time + float(gen.uniform(-10.0, 60.0))
        return Interval(-math.inf, hi) if gen.random() < 0.5 else Interval(hi, math.inf)
    if kind == 2:
        counts["point"] += 1
        at = time + float(gen.uniform(-10.0, 60.0))
        return Interval(at, at)
    lo = time + float(gen.uniform(-20.0, 70.0))
    hi = lo + float(gen.uniform(0.0, 40.0))
    return Interval(lo, hi)


def _time(gen: np.random.Generator):
    time = float(gen.uniform(0.0, 40.0))
    kind = gen.integers(4)
    if kind == 0:
        return int(time)
    if kind == 1:
        return np.float64(time)
    return time


def _check_agreement(planner: NNPlanner, seed: int) -> Counter:
    gen = np.random.default_rng(seed)
    counts: Counter = Counter()
    for case in range(N_CASES):
        time = _time(gen)
        position = float(gen.uniform(-60.0, 30.0))
        velocity = float(gen.uniform(-1.0, 25.0))
        window = _window(gen, time, counts)
        if not window.is_empty:
            counts["clip_past"] += window.lo - time < WINDOW_PAST
            counts["clip_far"] += window.hi - time > WINDOW_FAR
        fast = planner.plan_from_window(time, position, velocity, window)
        slow = _oracle(planner, time, position, velocity, window)
        counts["nan"] += slow != slow
        assert _same(fast, slow), (
            f"case {case}: plan_from_window({time!r}, {position!r}, "
            f"{velocity!r}, {window!r}) = {fast!r}, oracle {slow!r}"
        )
    return counts


def _require(counts: Counter, *names: str) -> None:
    missing = {name: counts[name] for name in names if counts[name] < 100}
    assert not missing, f"under-covered cases: {missing}"


@pytest.mark.parametrize("style", ["conservative", "aggressive"])
def test_trained_networks_match_the_training_path(
    style, request, scenario
):
    spec = request.getfixturevalue(f"tiny_{style}_spec")
    planner = spec.build_planner(
        PassingWindowEstimator(scenario.geometry, scenario.oncoming_limits),
        scenario.ego_limits,
    )
    counts = _check_agreement(planner, seed=len(style))
    _require(counts, "empty", "infinite", "point", "clip_past", "clip_far")


def test_sigmoid_identity_stack_matches(scenario):
    rng = np.random.default_rng(3)
    model = Sequential(
        [Dense(5, 12, rng), Sigmoid(), Dense(12, 7, rng), Identity(), Tanh(),
         Dense(7, 2, rng), Identity()]
    )
    counts = _check_agreement(_planner(model, scenario), seed=3)
    _require(counts, "empty", "clip_past", "clip_far")


def test_nan_producing_weights_match(scenario):
    rng = np.random.default_rng(4)
    first = Dense(5, 8, rng)
    # inf - inf, hence NaN, whenever scaled time and position share a sign.
    first.weight[0, 0] = math.inf
    first.weight[1, 0] = -math.inf
    model = Sequential([first, ReLU(), Dense(8, 1, rng)])
    with np.errstate(invalid="ignore"):
        counts = _check_agreement(_planner(model, scenario), seed=4)
    _require(counts, "nan")
    assert counts["nan"] < N_CASES, "every output was NaN"


def test_weights_updated_in_place_are_seen(tiny_conservative_spec, scenario):
    model = copy.deepcopy(tiny_conservative_spec.model)
    planner = _planner(model, scenario, tiny_conservative_spec.scaler)
    window = Interval(4.0, 9.0)
    before = planner.plan_from_window(1.0, -20.0, 6.0, window)
    for layer in model.layers:
        if isinstance(layer, Dense):
            layer.weight *= 0.5
            layer.bias += 0.25
    after = planner.plan_from_window(1.0, -20.0, 6.0, window)
    assert after == _oracle(planner, 1.0, -20.0, 6.0, window)
    assert after != before
    # A copy with another estimator shares the live network too.
    other = planner.with_window_estimator(planner.window_estimator)
    assert other.plan_from_window(1.0, -20.0, 6.0, window) == after


def _train_step(model: Sequential, x: np.ndarray, y: np.ndarray, calls) -> tuple:
    """One forward/backward pass, with ``calls`` run in between."""
    model.zero_grad()
    output = model.forward(x)
    calls()
    loss = MSELoss()
    input_grad = model.backward(loss.gradient(output, y))
    grads = {name: g.copy() for name, g in model.gradients().items()}
    return output, input_grad, grads


def test_planner_calls_leave_training_caches_alone(scenario):
    rng = np.random.default_rng(6)
    model = Sequential(
        [Dense(5, 16, rng, init="xavier"), Tanh(), Dense(16, 16, rng), ReLU(),
         Dense(16, 1, rng)]
    )
    twin = copy.deepcopy(model)
    planner = _planner(model, scenario)
    x = rng.normal(size=(32, 5))
    y = rng.normal(size=(32, 1))

    def plan_many():
        for k in range(20):
            planner.plan_from_window(float(k), -30.0 + k, 5.0, Interval(k + 2.0, k + 6.0))

    out_a, in_a, grads_a = _train_step(model, x, y, plan_many)
    out_b, in_b, grads_b = _train_step(twin, x, y, lambda: None)
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(in_a, in_b)
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        assert np.array_equal(grads_a[name], grads_b[name]), name


@pytest.mark.parametrize(
    "layers",
    [
        lambda rng: [Dense(4, 8, rng), ReLU(), Dense(8, 1, rng)],
        lambda rng: [Dense(5, 8, rng), ReLU(), Dense(6, 1, rng)],
        lambda rng: [Dense(5, 8, rng), Sequential([ReLU()]), Dense(8, 1, rng)],
        lambda rng: [Dense(5, 8, rng), Layer(), Dense(8, 1, rng)],
    ],
    ids=["input-width", "hidden-width", "nested", "unknown-layer"],
)
def test_malformed_chain_rejected_at_build(layers, scenario):
    model = Sequential(layers(np.random.default_rng(0)))
    with pytest.raises(ConfigurationError):
        _planner(model, scenario)


def _estimate(gen: np.random.Generator, scenario, time: float) -> FusedEstimate:
    """A fused estimate of the oncoming vehicle somewhere near the conflict zone."""
    geometry = scenario.geometry
    center = float(
        gen.uniform(geometry.oncoming_back - 10.0, geometry.oncoming_front + 60.0)
    )
    p_lo = center - float(gen.exponential(2.0))
    p_hi = center + float(gen.exponential(2.0))
    speed = float(gen.uniform(0.0, 20.0))
    v_lo = -speed - float(gen.exponential(1.0))
    v_hi = -speed + float(gen.exponential(1.0))
    return FusedEstimate(
        time=time,
        position=Interval(p_lo, p_hi),
        velocity=Interval(v_lo, v_hi),
        nominal=VehicleState(
            float(gen.uniform(p_lo, p_hi)),
            float(gen.uniform(v_lo, v_hi)),
            float(gen.uniform(-3.0, 3.0)),
        ),
    )


def _contexts(scenario, seed: int, n: int):
    gen = np.random.default_rng(seed)
    for _ in range(n):
        time = float(gen.uniform(0.0, 20.0))
        ego = VehicleState(
            float(gen.uniform(-60.0, 30.0)),
            float(gen.uniform(0.0, 20.0)),
            float(gen.uniform(-6.0, 4.0)),
        )
        yield PlanningContext(time, ego, {1: _estimate(gen, scenario, time)})


def _on_context(planner):
    """``planner.plan_floats`` on a context's fields."""

    def plan(context):
        ego = context.ego
        return planner.plan_floats(
            context.time, ego.position, ego.velocity, ego.acceleration,
            context.estimates,
        )

    return plan


def _outcome(plan, context):
    """The command, or the type and message of the error it raised."""
    try:
        return plan(context)
    except ReproError as exc:
        return (type(exc), str(exc))


def _copies(planner):
    return {
        "pickle": pickle.loads(pickle.dumps(planner)),
        "deepcopy": copy.deepcopy(planner),
    }


@pytest.mark.parametrize("style", ["conservative", "aggressive"])
def test_copied_nn_planner_matches(style, request, scenario):
    spec = request.getfixturevalue(f"tiny_{style}_spec")
    planner = spec.build_planner(
        PassingWindowEstimator(scenario.geometry, scenario.oncoming_limits),
        scenario.ego_limits,
    )
    for how, twin in _copies(planner).items():
        assert twin.model is not planner.model, how
        counts = _check_agreement(twin, seed=len(style))
        _require(counts, "empty", "infinite", "point", "clip_past", "clip_far")
        for context in _contexts(scenario, seed=11, n=500):
            assert _same(twin.plan(context), planner.plan(context)), how
        # The copy reads its own network's live arrays, not the original's.
        window = Interval(4.0, 9.0)
        before = planner.plan_from_window(1.0, -20.0, 6.0, window)
        for layer in twin.model.layers:
            if isinstance(layer, Dense):
                layer.weight *= 0.5
                layer.bias += 0.25
        assert twin.plan_from_window(1.0, -20.0, 6.0, window) == _oracle(
            twin, 1.0, -20.0, 6.0, window
        )
        assert planner.plan_from_window(1.0, -20.0, 6.0, window) == before


@pytest.mark.parametrize("name", ["basic", "ultimate"])
def test_copied_compound_planner_matches(name, tiny_conservative_spec, scenario):
    compound = getattr(
        build_trio(tiny_conservative_spec, scenario, ExperimentConfig()), name
    )
    contexts = list(_contexts(scenario, seed=12, n=2_000))
    expected = [_outcome(_on_context(compound), context) for context in contexts]
    assert any(isinstance(command, float) for command in expected)
    for how, twin in _copies(compound).items():
        got = [_outcome(_on_context(twin), context) for context in contexts]
        mismatches = [
            (k, a, b) for k, (a, b) in enumerate(zip(got, expected))
            if not (_same(a, b) if isinstance(a, float) else a == b)  # safelint: disable=SFL001 - a is an error's (type, message)
        ]
        assert not mismatches, f"{how}: first mismatches {mismatches[:3]}"


def test_planners_sharing_a_network_match_interleaved(
    tiny_aggressive_spec, scenario
):
    conservative = tiny_aggressive_spec.build_planner(
        PassingWindowEstimator(scenario.geometry, scenario.oncoming_limits),
        scenario.ego_limits,
    )
    aggressive = conservative.with_window_estimator(
        PassingWindowEstimator(
            scenario.geometry, scenario.oncoming_limits, aggressive=True
        )
    )
    assert aggressive.model is conservative.model
    differ = 0
    for context in _contexts(scenario, seed=13, n=N_CASES // 2):
        commands = []
        for planner in (conservative, aggressive):
            lo, hi = planner.window_estimator.bounds(context.estimates[1])
            window = Interval.EMPTY if lo > hi else Interval(lo, hi)
            ego = context.ego
            slow = _oracle(planner, context.time, ego.position, ego.velocity, window)
            fast = planner.plan(context)
            assert _same(fast, slow), (context, planner.window_estimator)
            commands.append(fast)
        differ += commands[0] != commands[1]
    assert differ > 100, "the two estimators never disagreed"


def _parameters_and_caches(model: Sequential):
    arrays = []
    for layer in model.layers:
        if isinstance(layer, Dense):
            arrays += [layer.weight, layer.bias, layer.grad_weight, layer.grad_bias]
            arrays.append(layer._input)
        else:
            arrays.append(layer._cache)
    return arrays


@pytest.mark.parametrize("stack", ["trained", "sigmoid-identity"])
def test_inference_leaves_weights_biases_and_caches_unchanged(
    stack, tiny_conservative_spec, scenario
):
    if stack == "trained":
        model = copy.deepcopy(tiny_conservative_spec.model)
    else:
        rng = np.random.default_rng(7)
        model = Sequential(
            [Dense(5, 12, rng), Sigmoid(), Dense(12, 7, rng), Identity(), Tanh(),
             ReLU(), Dense(7, 1, rng), Identity()]
        )
    # Training caches present, as after a forward pass.
    model.forward(np.random.default_rng(8).normal(size=(16, 5)))
    planner = _planner(model, scenario, tiny_conservative_spec.scaler)
    held = _parameters_and_caches(model)
    snapshot = [array.copy() for array in held]
    gen = np.random.default_rng(9)
    counts: Counter = Counter()
    for _ in range(N_CASES):
        time = _time(gen)
        planner.plan_from_window(
            time,
            float(gen.uniform(-60.0, 30.0)),
            float(gen.uniform(-1.0, 25.0)),
            _window(gen, time, counts),
        )
    now = _parameters_and_caches(model)
    assert all(a is b for a, b in zip(now, held))
    for array, before in zip(now, snapshot):
        assert np.array_equal(array, before, equal_nan=True)
