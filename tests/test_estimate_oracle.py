"""Differential test: the scalar fused estimate against its Interval oracle.

``repro.filtering`` computes each control step's estimate on plain
floats: Eq. (2) once in ``ReachabilityAnalyzer.reach_box``, the
message/sensor/Kalman band join in ``join_or_fallback``, and the two
``Interval`` objects of the ``FusedEstimate`` built only at the end.
``tests/estimate_oracle.py`` keeps the ``Interval``/``ReachBand`` path it
replaced.  Two levels of agreement are checked, both exact (``==``, no
tolerance):

* **band level** -- 10 000 random estimator states through
  ``InformationFilter.estimate`` and ``RawEstimator.estimate``: equal
  fused estimates, or the same exception type.  The cases cover both
  Eq. (2) branches on both sides, zero elapsed time, velocity readings
  outside the physical range, disjoint message/sensor bands, disjoint
  Kalman bands, the watchdog fallback, NaN readings and queries before
  a stamp; the test counts each and requires all of them;
* **episode level** -- the ultimate compound planner (information
  filter) and the basic one (raw estimator) under the paper's three
  communication settings and the comm-storm fault stack, 20 seeds each:
  outcome, steps, emergency steps, reaching and collision time and eta
  are identical with the oracle patched in.

A failure names the case (seed) or the episode (setting, index) that
disagreed.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import List, Optional

import numpy as np
import pytest

from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ReproError
from repro.experiments.config import SETTING_NAMES, ExperimentConfig
from repro.experiments.harness import build_trio
from repro.filtering import info_filter
from repro.filtering.info_filter import InformationFilter, RawEstimator
from repro.filtering.kalman import KalmanState
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.runner import BatchRunner, EstimatorKind
from tests import estimate_oracle
from tests.test_kalman_oracle import _comm

N_CASES = 10_000

#: Every situation the band-level cases must reach at least this often.
MIN_COVERAGE = 50


class _StubReplay:
    """Stands in for the replay filter: a fixed Kalman estimate."""

    def __init__(self, state: Optional[KalmanState], accel: float) -> None:
        self._state = state
        self.current_accel = accel

    @property
    def is_initialized(self) -> bool:
        return self._state is not None

    def estimate_at(self, now: float) -> KalmanState:
        assert self._state is not None
        return self._state


def _outcome(estimate, estimator, now: float):
    """The estimate, or the type of the exception it raised."""
    try:
        return estimate(estimator, now)
    except ReproError as exc:
        return type(exc)


def _random_case(seed: int, seen: Counter) -> List[str]:
    """Run one random estimator state through both paths.

    Returns the disagreements found and tallies what the case covered
    in ``seen``.
    """
    rng = np.random.default_rng(seed)
    v_min = float(rng.uniform(-25.0, 0.0))
    v_max = v_min + float(rng.uniform(0.5, 30.0))
    limits = VehicleLimits(
        v_min=v_min,
        v_max=v_max,
        a_min=-float(rng.uniform(0.5, 8.0)),
        a_max=float(rng.uniform(0.5, 5.0)),
    )
    deltas = rng.uniform(0.0, 3.0, size=3)
    deltas[rng.random(3) < 0.1] = 0.0
    bounds = NoiseBounds(*map(float, deltas))
    center_p = float(rng.uniform(-100.0, 100.0))
    center_v = float(rng.uniform(v_min - 5.0, v_max + 5.0))

    def near(center: float, spread: float) -> float:
        # Mostly close to the common centre; sometimes far (disjoint bands).
        far = 40.0 * spread if rng.random() < 0.2 else 0.0
        return center + float(rng.normal(0.0, spread)) + far * rng.choice([-1, 1])

    message = None
    stamps = []
    if rng.random() < 0.8:
        stamp = float(rng.uniform(0.0, 5.0))
        state = VehicleState(
            near(center_p, 1.0), near(center_v, 1.0), float(rng.uniform(-3, 3))
        )
        message = Message(sender=1, stamp=stamp, state=state)
        stamps.append(stamp)
    reading = None
    if rng.random() < 0.8:
        time = float(rng.uniform(0.0, 5.0))
        position = near(center_p, 1.0)
        velocity = near(center_v, 1.0)
        if rng.random() < 0.02:
            if rng.random() < 0.5:
                position = math.nan
            else:
                velocity = math.nan
            seen["nan reading"] += 1
        reading = SensorReading(
            target=1,
            time=time,
            position=position,
            velocity=velocity,
            acceleration=float(rng.uniform(-3, 3)),
        )
        stamps.append(time)
        if not math.isnan(velocity) and (
            velocity + bounds.delta_v < v_min or velocity - bounds.delta_v > v_max
        ):
            seen["reading velocity outside range"] += 1
    if not stamps:
        seen["no information"] += 1
        now = float(rng.uniform(0.0, 5.0))
    else:
        draw = rng.random()
        if draw < 0.15:
            now = max(stamps)
            seen["elapsed == 0"] += 1
        elif draw < 0.18:
            now = max(stamps) - float(rng.uniform(1e-6, 1.0))
            seen["query before stamp"] += 1
        else:
            now = max(stamps) + float(rng.exponential(1.5))

    kalman = None
    if reading is not None and rng.random() < 0.9:
        kalman = KalmanState(
            time=now,
            position=near(center_p, 1.0),
            velocity=near(center_v, 1.0),
            p00=float(rng.uniform(0.0, 2.0)),
            p01=0.0,
            p11=float(rng.uniform(0.0, 2.0)),
        )
    accel = float(rng.uniform(-3.0, 3.0))
    diverged = bool(rng.random() < 0.1)

    filt = InformationFilter(limits, bounds, sensing_period=0.1)
    filt._replay = _StubReplay(kalman, accel)
    filt._watchdog.diverged = diverged
    raw = RawEstimator(limits, bounds)
    for estimator in (filt, raw):
        estimator._latest_message = message
        estimator._latest_reading = reading

    _tally(seen, limits, bounds, message, reading, now, kalman, filt)
    disagreements = []
    for name, estimator, fast, slow in (
        ("information filter", filt, InformationFilter.estimate,
         estimate_oracle.information_filter_estimate),
        ("raw estimator", raw, RawEstimator.estimate, estimate_oracle.raw_estimate),
    ):
        ours = _outcome(fast, estimator, now)
        theirs = _outcome(slow, estimator, now)
        if ours != theirs:
            disagreements.append(
                f"case seed={seed} {name}: fast={ours} oracle={theirs}"
            )
    return disagreements


def _tally(seen, limits, bounds, message, reading, now, kalman, filt) -> None:
    """Count the Eq. (2) branches and join situations this case reaches."""
    reach = estimate_oracle.ReachabilityAnalyzer(limits)
    starts = []
    if message is not None:
        starts.append((message.state.velocity, message.stamp))
    if reading is not None and not math.isnan(reading.velocity):
        starts.append((reading.velocity, reading.time))
    for velocity, stamp in starts:
        elapsed = now - stamp
        if elapsed <= 0.0:
            continue
        v0 = limits.clip_velocity(velocity)
        for accel, cap, side in (
            (limits.a_max, limits.v_max, "upper"),
            (limits.a_min, limits.v_min, "lower"),
        ):
            v_end = v0 + accel * elapsed
            saturating = v_end > cap if accel > 0.0 else v_end < cap
            kind = "saturating" if saturating else "non-saturating"
            seen[f"{kind} {side} Eq. (2)"] += 1
    if filt._watchdog.diverged:
        seen["watchdog fallback"] += 1
    try:
        guaranteed = estimate_oracle.guaranteed_band(
            reach, bounds, message, reading, now
        )
        if message is not None and reading is not None:
            sent = reach.band_from_state(message.state, message.stamp, now)
            sensed = estimate_oracle.guaranteed_band(reach, bounds, None, reading, now)
            if not (
                sent.position.overlaps(sensed.position)
                and sent.velocity.overlaps(sensed.velocity)
            ):
                seen["disjoint message/sensor bands"] += 1
    except ReproError:
        return
    if kalman is not None and not filt._watchdog.diverged:
        if not (
            guaranteed.position.overlaps(kalman.position_band(filt._n_sigma))
            and guaranteed.velocity.overlaps(kalman.velocity_band(filt._n_sigma))
        ):
            seen["disjoint Kalman band"] += 1

class TestBandLevel:
    def test_random_cases_match_oracle(self):
        seen: Counter = Counter()
        disagreements: List[str] = []
        for seed in range(N_CASES):
            disagreements.extend(_random_case(seed, seen))
        assert not disagreements, (
            f"{len(disagreements)} estimates disagree with the Interval "
            "oracle; first ones:\n" + "\n".join(disagreements[:5])
        )
        required = [
            "saturating upper Eq. (2)",
            "non-saturating upper Eq. (2)",
            "saturating lower Eq. (2)",
            "non-saturating lower Eq. (2)",
            "elapsed == 0",
            "reading velocity outside range",
            "disjoint message/sensor bands",
            "disjoint Kalman band",
            "watchdog fallback",
            "nan reading",
            "query before stamp",
            "no information",
        ]
        thin = {name: seen[name] for name in required if seen[name] < MIN_COVERAGE}
        assert not thin, f"situations reached too rarely: {thin}"


# ----------------------------------------------------------------------
# Episode level
# ----------------------------------------------------------------------
PAPER = ExperimentConfig()
N_EPISODES = 20
EPISODE_SEED = 2024


def _fingerprints(planner, kind, scenario, setting: str):
    engine = SimulationEngine(
        scenario,
        _comm(setting),
        SimulationConfig(max_time=PAPER.max_time, record_trajectories=False),
    )
    runner = BatchRunner(engine, kind)
    return [
        (
            result.outcome,
            result.steps,
            result.emergency_steps,
            result.reaching_time,
            result.collision_time,
            result.eta,
        )
        for result in runner.run_batch(planner, N_EPISODES, seed=EPISODE_SEED)
    ]


@pytest.fixture(scope="module")
def trio(tiny_aggressive_spec, scenario):
    """Pure / basic / ultimate planners around a cheaply trained NN."""
    return build_trio(tiny_aggressive_spec, scenario, PAPER)


class TestEpisodeLevel:
    @pytest.mark.parametrize("setting", [*SETTING_NAMES, "comm_storm"])
    @pytest.mark.parametrize(
        "config", ["ultimate-filtered", "basic-raw"]
    )
    def test_episodes_identical_with_oracle(
        self, config, setting, trio, scenario, monkeypatch
    ):
        if config == "ultimate-filtered":
            planner, kind = trio.ultimate, EstimatorKind.FILTERED
        else:
            planner, kind = trio.basic, EstimatorKind.RAW
        fast = _fingerprints(planner, kind, scenario, setting)
        monkeypatch.setattr(
            info_filter.InformationFilter,
            "estimate",
            estimate_oracle.information_filter_estimate,
        )
        monkeypatch.setattr(
            info_filter.RawEstimator, "estimate", estimate_oracle.raw_estimate
        )
        slow = _fingerprints(planner, kind, scenario, setting)
        differing = [
            f"{config} {setting} episode {index}: fast={ours} oracle={theirs}"
            for index, (ours, theirs) in enumerate(zip(fast, slow))
            if ours != theirs
        ]
        assert not differing, "\n".join(differing)
