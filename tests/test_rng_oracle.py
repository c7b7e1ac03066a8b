"""Differential test: the block-buffered ``RngStream`` against its oracle.

``repro.utils.rng.RngStream`` serves scalar ``uniform``/``random``/
``bernoulli`` draws from a block of doubles and re-syncs its generator
before any other draw and before ``.generator`` access.
``tests/rng_oracle.py`` keeps the unbuffered stream it replaced.  Two
levels of agreement are checked, both exact:

* **draw level** -- random interleavings of every draw method (scalar
  and sized draws, ``normal``, ``integers``, ``choice``, ``shuffle``,
  ``permutation``, draws through ``.generator``, ``spawn``/``child``,
  pickle and deep-copy round trips mid-block, bad ``uniform``/
  ``bernoulli`` arguments) on a buffered stream and an oracle stream of
  the same seed: equal values of the same type, or the same exception
  type and message.  The test counts, and requires, block refills,
  re-syncs from the middle of a block and round trips mid-block;
* **episode level** -- left turn, multi-oncoming, signalized and car
  following, 20 episodes each on a channel with burst loss, uniform and
  Gaussian jitter and duplication: the ``result_to_dict`` content is
  identical when the episode draws from the oracle.

A failure names the sequence (seed) and step, or the episode.
"""

from __future__ import annotations

import copy
import math
import pickle  # safelint: disable=SFL009 - the round trip is under test
from collections import Counter

import numpy as np
import pytest

from repro.comm.faults import (
    Duplication,
    GaussianJitter,
    GilbertElliottLoss,
    UniformJitter,
    compose,
)
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.planners.constant import FullThrottlePlanner
from repro.scenarios.car_following import CarFollowingScenario
from repro.scenarios.left_turn.multi import MultiOncomingLeftTurnScenario
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.scenarios.signalized import SignalizedCrossingScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.sim.serialization import canonical_dumps, result_to_dict
from repro.utils.rng import BLOCK_SIZE, RngStream
from tests import rng_oracle

N_SEQUENCES = 200
OPS_PER_SEQUENCE = 250
N_EPISODES = 20

#: Arguments numpy rejects; the buffered stream must reject them alike.
BAD_UNIFORM = [
    (1.0, 0.0),
    (0.0, math.nan),
    (math.nan, 0.0),
    (0.0, math.inf),
    (-math.inf, 0.0),
    (-1e308, 1e308),
    (10**400, 1.0),
    ("a", 1.0),
    (None, 1.0),
    (1 + 2j, 3.0),
]
BAD_BERNOULLI = [-0.1, 1.5, math.nan, math.inf]

#: Draws served from the block.
SCALAR_DRAWS = ("uniform", "uniform_default", "random", "bernoulli", "burst")


def _same(fast, slow) -> bool:
    """Exact equality of two draws, type included (NaN equals NaN)."""
    if type(fast) is not type(slow):
        return False
    if isinstance(fast, np.ndarray):
        return fast.dtype == slow.dtype and np.array_equal(fast, slow, equal_nan=True)
    if isinstance(fast, list):
        return len(fast) == len(slow) and all(map(_same, fast, slow))
    return fast == slow or (fast != fast and slow != slow)


def _outcome(draw, stream):
    """The draw, or the type and message of the exception it raised."""
    try:
        return draw(stream)
    except Exception as exc:  # safelint: disable=SFL003 - compared as data
        return (type(exc), str(exc))


def _mid_block(stream: RngStream) -> bool:
    return 0 < stream._used < len(stream._block)


def _scalar_bound(gen: np.random.Generator):
    """A uniform bound of one of the types numpy accepts as a scalar."""
    value = float(gen.uniform(-50.0, 50.0))
    kind = gen.integers(6)
    if kind == 0:
        return int(value)
    if kind == 1:
        return np.float64(value)
    if kind == 2:
        return np.float32(value)
    if kind == 3:
        return -0.0
    return value


def _draw_op(gen: np.random.Generator):
    """A random draw: ``(name, draw)`` with ``draw(stream) -> value``."""
    kind = int(gen.integers(17))
    if kind == 16:
        n = int(gen.integers(1, 3 * BLOCK_SIZE))
        return "burst", lambda s: [s.uniform(-3.0, 4.0) for _ in range(n)]
    if kind <= 4:
        low = _scalar_bound(gen)
        high = low + abs(_scalar_bound(gen)) if gen.random() < 0.9 else low
        return "uniform", lambda s: s.uniform(low, high)
    if kind == 5:
        return "uniform_default", lambda s: s.uniform()
    if kind == 6:
        size = int(gen.integers(0, 2 * BLOCK_SIZE))
        return "uniform_sized", lambda s: s.uniform(-1.0, 2.0, size=size)
    if kind == 7:
        lows = gen.uniform(-1.0, 0.0, size=3)
        return "uniform_array", lambda s: s.uniform(lows, 1.0)
    if kind == 8:
        return "random", lambda s: s.random()
    if kind == 9:
        p = [0.0, 1.0, float(gen.random()), np.float64(gen.random())][gen.integers(4)]
        return "bernoulli", lambda s: s.bernoulli(p)
    if kind == 10:
        size = (int(gen.integers(1, 4)), int(gen.integers(1, 40)))
        return "random_sized", lambda s: s.random(size=size)
    if kind == 11:
        sized = gen.random() < 0.5
        return "normal", lambda s: s.normal(1.0, 2.0, size=5 if sized else None)
    if kind == 12:
        high = int([10, 2**40][gen.integers(2)])
        return "integers", lambda s: s.integers(0, high)
    if kind == 13:
        options = [3.0, 5.0, 7.0, 11.0]
        if gen.random() < 0.5:
            return "choice", lambda s: s.choice(options)
        return "choice", lambda s: s.choice(10, size=3, replace=False)
    if kind == 14:
        n = int(gen.integers(1, 20))

        def shuffled(s):
            array = np.arange(n)
            s.shuffle(array)
            return array

        return "shuffle", shuffled
    n = int(gen.integers(1, 20))
    return "permutation", lambda s: s.permutation(n)


def _compare_children(fast, slow, where: str) -> None:
    for i, (f, s) in enumerate(zip(fast, slow)):
        for k in range(BLOCK_SIZE + 3):
            got, want = f.uniform(-1.0, 1.0), s.uniform(-1.0, 1.0)
            assert _same(got, want), f"{where}: child {i} draw {k}: {got!r} != {want!r}"
        assert _same(f.normal(), s.normal()), f"{where}: child {i} normal"


def _run_sequence(seed: int, counts: Counter) -> None:
    gen = np.random.default_rng(seed)
    fast = RngStream(seed)
    slow = rng_oracle.RngStream(seed)
    for step in range(OPS_PER_SEQUENCE):
        where = f"sequence {seed} step {step}"
        roll = gen.random()
        if roll < 0.80:
            name, draw = _draw_op(gen)
            scalar = name in SCALAR_DRAWS
            if not scalar:
                counts["sync_mid_block"] += _mid_block(fast)
            block = fast._block
            got, want = _outcome(draw, fast), _outcome(draw, slow)
            counts["refill"] += scalar and fast._block is not block
            counts[name] += 1
            assert _same(got, want), f"{where}: {name}: {got!r} != {want!r}"
        elif roll < 0.86:
            low, high = BAD_UNIFORM[gen.integers(len(BAD_UNIFORM))]
            got = _outcome(lambda s: s.uniform(low, high), fast)
            want = _outcome(lambda s: s.uniform(low, high), slow)
            assert isinstance(want, tuple), f"{where}: uniform({low!r}, {high!r}) drew"
            assert got == want, f"{where}: uniform({low!r}, {high!r}): {got!r} != {want!r}"
            counts["bad_uniform"] += 1
        elif roll < 0.89:
            p = BAD_BERNOULLI[gen.integers(len(BAD_BERNOULLI))]
            got = _outcome(lambda s: s.bernoulli(p), fast)
            want = _outcome(lambda s: s.bernoulli(p), slow)
            assert isinstance(want, tuple), f"{where}: bernoulli({p!r}) drew"
            assert got == want, f"{where}: bernoulli({p!r}): {got!r} != {want!r}"
            counts["bad_bernoulli"] += 1
        elif roll < 0.93:
            counts["generator_mid_block"] += _mid_block(fast)
            got = fast.generator.random()
            want = slow.generator.random()
            assert _same(got, want), f"{where}: generator draw: {got!r} != {want!r}"
            counts["generator"] += 1
        elif roll < 0.96:
            if gen.random() < 0.5:
                _compare_children(fast.spawn(2), slow.spawn(2), where)
            else:
                _compare_children([fast.child()], [slow.child()], where)
            counts["spawn"] += 1
        else:
            counts["round_trip_mid_block"] += _mid_block(fast)
            if gen.random() < 0.5:
                fast = pickle.loads(pickle.dumps(fast))
            else:
                fast = copy.deepcopy(fast)
            counts["round_trip"] += 1
    # The two generators end in the same place.
    assert _same(fast.generator.random(8), slow.generator.random(8)), seed


def test_draws_match_the_unbuffered_oracle():
    counts: Counter = Counter()
    for seed in range(N_SEQUENCES):
        _run_sequence(seed, counts)
    required = [
        "uniform",
        "uniform_default",
        "uniform_sized",
        "uniform_array",
        "random",
        "random_sized",
        "bernoulli",
        "normal",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "bad_uniform",
        "bad_bernoulli",
        "generator",
        "spawn",
        "burst",
        "round_trip",
        "refill",
        "sync_mid_block",
        "generator_mid_block",
        "round_trip_mid_block",
    ]
    missing = {name: counts[name] for name in required if counts[name] < 20}
    assert not missing, f"under-covered cases: {missing}"


def test_every_bad_argument_raises_like_numpy():
    for low, high in BAD_UNIFORM:
        got = _outcome(lambda s: s.uniform(low, high), RngStream(1))
        want = _outcome(lambda s: s.uniform(low, high), rng_oracle.RngStream(1))
        assert isinstance(want, tuple) and got == want, (low, high)
    for p in BAD_BERNOULLI:
        got = _outcome(lambda s: s.bernoulli(p), RngStream(1))
        want = _outcome(lambda s: s.bernoulli(p), rng_oracle.RngStream(1))
        assert isinstance(want, tuple) and got == want, p


# ---------------------------------------------------------------------------
# Episode level
# ---------------------------------------------------------------------------
#: Every channel fault that draws: burst loss (bernoulli), uniform and
#: Gaussian jitter (uniform, normal) and duplication (bernoulli).
CHANNEL = compose(
    GilbertElliottLoss(p_enter_burst=0.2, p_exit_burst=0.5),
    UniformJitter(0.0, 0.2),
    GaussianJitter(mean=0.1, std=0.05),
    Duplication(0.2, lag=0.05),
)

SCENARIOS = {
    "left_turn": LeftTurnScenario,
    "multi_oncoming": lambda: MultiOncomingLeftTurnScenario(n_oncoming=2),
    "signalized": SignalizedCrossingScenario,
    "car_following": CarFollowingScenario,
}


def _episode_bytes(scenario_name: str, stream) -> str:
    scenario = SCENARIOS[scenario_name]()
    comm = CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        sensor_bounds=NoiseBounds.uniform_all(0.5),
        faults=CHANNEL,
    )
    engine = SimulationEngine(scenario, comm, SimulationConfig(max_time=10.0))
    planner = CompoundPlanner(
        nn_planner=FullThrottlePlanner(scenario.ego_limits),
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
    )
    factory = make_estimator_factory(EstimatorKind.FILTERED, engine)
    result = engine.run(planner, factory, stream)
    return canonical_dumps(result_to_dict(result, include_trajectories=True))


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_episodes_match_with_the_oracle_stream(scenario_name):
    for seed in range(N_EPISODES):
        fast = _episode_bytes(scenario_name, RngStream(seed))
        slow = _episode_bytes(scenario_name, rng_oracle.RngStream(seed))
        assert fast == slow, f"{scenario_name} episode {seed} differs"
