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
also see weights updated in place, leave the training caches alone, and
reject a malformed layer chain when the planner is built.
"""

from __future__ import annotations

import copy
import math
from collections import Counter

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import Dense, Identity, Layer, ReLU, Sequential, Sigmoid, Tanh
from repro.nn.losses import MSELoss
from repro.nn.tensor_ops import as_batch
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
