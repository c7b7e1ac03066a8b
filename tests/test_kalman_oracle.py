"""Differential test: the scalar Kalman filter against its matrix oracle.

``repro.filtering.kalman`` computes the paper's filter in closed-form
scalar arithmetic.  ``tests/kalman_oracle.py`` keeps the numpy matrix
filter it replaced.  Two levels of agreement are checked:

* **state level** -- random chains of ``extrapolate_floats`` steps
  over irregular gaps and over the sensing period (against the matrix
  ``extrapolate`` and ``predict``) and ``update_floats`` steps, plus
  the ill-conditioned-R, noiseless-R and 2000-step cases of
  ``test_filter_hardening.py``: every intermediate state agrees to a
  relative 1e-9, and every covariance is symmetric positive-semidefinite;
* **field helpers** -- ``extrapolate_floats``/``update_floats`` against
  the scalar object path they replaced (``kalman_oracle.
  ScalarKalmanFilter``) over irregular gaps, R = 0, a singular
  innovation covariance, non-finite and signed-zero inputs, and the PSD
  projection against ``max``/``min`` on NaN, infinities and ``-0.0``:
  the same fields bit for bit, or the same error and message;
* **episode level** -- the ultimate compound planner under the paper's
  three communication settings and the comm-storm fault stack, 20
  seeds each: outcome, steps, emergency steps, reaching and collision
  time and eta are identical with either filter inside the information
  filter.

A failure names the chain (seed, step, operation) or the episode
(setting, index) that disagreed.
"""

from __future__ import annotations

import functools
import math
from typing import List, Tuple

import numpy as np
import pytest

from repro.campaign.builders import build_comm
from repro.errors import FilterError
from repro.experiments.config import SETTING_NAMES, ExperimentConfig
from repro.experiments.harness import build_trio
from repro.filtering import info_filter, kalman
from repro.filtering.kalman import KalmanFilter, KalmanState
from repro.filtering.replay import ReplayKalmanFilter
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.runner import BatchRunner, EstimatorKind
from tests import kalman_oracle

RTOL = 1e-9
N_CHAINS = 10_000

#: The comm-storm channel of the campaign benchmark: burst loss, fixed
#: delay, jitter and duplication composed on every channel.
STORM_FAULTS = [
    {"kind": "gilbert_elliott_loss", "p_enter_burst": 0.1, "p_exit_burst": 0.3},
    {"kind": "fixed_delay", "delay": 0.2},
    {"kind": "uniform_jitter", "low": 0.0, "high": 0.3},
    {"kind": "duplication", "probability": 0.2, "lag": 0.1},
]


def _oracle_state(state: KalmanState) -> kalman_oracle.KalmanState:
    return kalman_oracle.KalmanState(
        time=state.time,
        x_hat=np.array([[state.position], [state.velocity]]),
        covariance=kalman_oracle.covariance(state),
    )


def _named(fields) -> KalmanState:
    """A kernel's result fields under their names."""
    return KalmanState(*fields)


def _close(fast: float, slow: float, scale: float) -> bool:
    """Relative agreement; ``scale`` sets the floor for near-zero entries."""
    return abs(fast - slow) <= RTOL * max(abs(slow), scale)


def _disagreement(
    fast: KalmanState, slow: kalman_oracle.KalmanState
) -> List[str]:
    """Fields on which the two states differ beyond ``RTOL``.

    Means are compared relative to the larger of the two means, the
    covariance relative to its larger variance, so that a covariance
    term at roundoff level next to unit variances is not held to a
    relative tolerance of its own.
    """
    slow_p, slow_v = slow.position, slow.velocity
    slow_cov = slow.covariance
    mean_scale = max(abs(slow_p), abs(slow_v), 1e-300)
    cov_scale = max(abs(slow_cov[0, 0]), abs(slow_cov[1, 1]), 1e-300)
    pairs = [
        ("time", fast.time, slow.time, abs(slow.time)),
        ("position", fast.position, slow_p, mean_scale),
        ("velocity", fast.velocity, slow_v, mean_scale),
        ("p00", fast.p00, float(slow_cov[0, 0]), cov_scale),
        ("p01", fast.p01, float(slow_cov[0, 1]), cov_scale),
        ("p11", fast.p11, float(slow_cov[1, 1]), cov_scale),
    ]
    return [
        f"{name}: fast={a!r} oracle={b!r}"
        for name, a, b, scale in pairs
        if not _close(a, b, scale)
    ]


def _psd_problem(state: KalmanState) -> str:
    """Why ``state``'s covariance is not symmetric PSD, or ``""``."""
    p = kalman_oracle.covariance(state)
    if p[0, 1] != p[1, 0]:
        return f"asymmetric covariance {p.tolist()}"
    if state.p00 < 0.0 or state.p11 < 0.0:
        return f"negative variance {p.tolist()}"
    # Cauchy-Schwarz, with one ulp of slack for the rounded square root.
    bound = math.sqrt(state.p00 * state.p11)
    if abs(state.p01) > bound * (1.0 + 4.0 * np.finfo(float).eps):
        return f"indefinite covariance {p.tolist()}"
    return ""


def _random_chain(seed: int) -> Tuple[List[str], List[str]]:
    """Run one random chain through both filters.

    Returns the disagreements and PSD problems found, each naming the
    seed, step and operation.
    """
    rng = np.random.default_rng(seed)
    delta_p, delta_v, delta_a = 10.0 ** rng.uniform(-3.0, 1.0, size=3)
    bounds = NoiseBounds(delta_p=delta_p, delta_v=delta_v, delta_a=delta_a)
    dt = float(rng.uniform(0.02, 0.5))
    fast_kf = KalmanFilter(bounds)
    slow_kf = kalman_oracle.KalmanFilter(dt, bounds)
    var_p, var_v = 10.0 ** rng.uniform(-4.0, 2.0, size=2)
    fast = KalmanFilter.initial_state(
        float(rng.uniform(0.0, 5.0)),
        float(rng.uniform(-10.0, 10.0)),
        float(rng.uniform(-5.0, 5.0)),
        var_p,
        var_v,
    )
    slow = _oracle_state(fast)
    disagreements: List[str] = []
    problems: List[str] = []
    for step in range(int(rng.integers(2, 9))):
        op = int(rng.integers(0, 3))
        if op == 0:
            gap = float(rng.uniform(0.0, 1.0))
            accel = float(rng.uniform(-6.0, 6.0))
            label = f"extrapolate(a={accel}, dt={gap})"
            fast = _named(fast_kf.extrapolate_floats(fast, accel, gap))
            slow = slow_kf.extrapolate(slow, accel, gap)
        elif op == 1:
            accel = float(rng.uniform(-6.0, 6.0))
            label = f"predict(a={accel})"
            fast = _named(fast_kf.extrapolate_floats(fast, accel, dt))
            slow = slow_kf.predict(slow, accel)
        else:
            z_p = fast.position + float(rng.uniform(-2.0, 2.0)) * delta_p
            z_v = fast.velocity + float(rng.uniform(-2.0, 2.0)) * delta_v
            label = f"update(z=({z_p}, {z_v}))"
            fast = _named(fast_kf.update_floats(fast, z_p, z_v))
            slow = slow_kf.update(slow, z_p, z_v)
        case = f"chain seed={seed} step={step} {label}"
        diff = _disagreement(fast, slow)
        if diff:
            disagreements.append(f"{case}: " + "; ".join(diff))
            break
        problem = _psd_problem(fast)
        if problem:
            problems.append(f"{case}: {problem}")
    return disagreements, problems


def _assert_none(found: List[str], what: str) -> None:
    assert not found, (
        f"{len(found)} {what}; first ones:\n" + "\n".join(found[:5])
    )


class TestStateLevel:
    def test_random_chains_match_oracle(self):
        disagreements: List[str] = []
        problems: List[str] = []
        for seed in range(N_CHAINS):
            diff, psd = _random_chain(seed)
            disagreements.extend(diff)
            problems.extend(psd)
        _assert_none(disagreements, "chains disagree with the matrix oracle")
        _assert_none(problems, "covariances are not symmetric PSD")

    def test_ill_conditioned_r(self):
        # R condition number ~1e12 against a prior mismatched the other
        # way round (test_filter_hardening's extreme-conditioning case).
        bounds = NoiseBounds(delta_p=1e3, delta_v=1e-3, delta_a=0.5)
        fast_kf = KalmanFilter(bounds)
        slow_kf = kalman_oracle.KalmanFilter(0.1, bounds)
        fast = KalmanState(
            time=0.0, position=100.0, velocity=10.0, p00=1e-8, p01=1e-5, p11=1e4
        )
        slow = _oracle_state(fast)
        fast = _named(fast_kf.update_floats(fast, 101.0, 9.0))
        slow = slow_kf.update(slow, 101.0, 9.0)
        _assert_none(_disagreement(fast, slow), "ill-conditioned-R fields")
        assert _psd_problem(fast) == ""

    def test_ill_conditioned_chain(self):
        # test_filter_hardening's 200-step chain with R ill-conditioned.
        bounds = NoiseBounds(delta_p=200.0, delta_v=1e-4, delta_a=1.0)
        fast_kf = KalmanFilter(bounds)
        slow_kf = kalman_oracle.KalmanFilter(0.1, bounds)
        fast = KalmanFilter.initial_state(0.0, 0.0, 10.0, 1e6, 1e-8)
        slow = _oracle_state(fast)
        for step in range(1, 200):
            predicted = fast_kf.extrapolate_floats(fast, 0.0, 0.1)
            fast = _named(fast_kf.update_floats(predicted, 0.1 * step, 10.0))
            slow = slow_kf.update(slow_kf.predict(slow, 0.0), 0.1 * step, 10.0)
            diff = _disagreement(fast, slow)
            assert not diff, f"ill-conditioned chain step={step}: {diff}"
            assert _psd_problem(fast) == "", f"step={step}"

    def test_noiseless_r(self):
        fast_kf = KalmanFilter(NoiseBounds.noiseless())
        slow_kf = kalman_oracle.KalmanFilter(0.1, NoiseBounds.noiseless())
        fast = fast_kf.exact_state(0.0, 5.0, 8.0)
        slow = _oracle_state(fast)
        for step in range(1, 50):
            predicted = fast_kf.extrapolate_floats(fast, 0.3, 0.1)
            fast = _named(fast_kf.update_floats(predicted, 8.0 * step * 0.1, 8.0))
            slow = slow_kf.update(slow_kf.predict(slow, 0.3), 8.0 * step * 0.1, 8.0)
            diff = _disagreement(fast, slow)
            assert not diff, f"noiseless chain step={step}: {diff}"
            assert not np.any(kalman_oracle.covariance(fast))

    def test_long_chain(self):
        # test_filter_hardening's 2000-step chain at tiny noise bounds.
        bounds = NoiseBounds(delta_p=1e-6, delta_v=1e-6, delta_a=1e-6)
        fast_kf = KalmanFilter(bounds)
        slow_kf = kalman_oracle.KalmanFilter(0.1, bounds)
        fast = KalmanFilter.initial_state(0.0, 0.0, 5.0, 1e-12, 1e-12)
        slow = _oracle_state(fast)
        for step in range(1, 2000):
            predicted = fast_kf.extrapolate_floats(fast, 0.0, 0.1)
            fast = _named(fast_kf.update_floats(predicted, 0.5 * step * 0.1, 5.0))
            slow = slow_kf.update(slow_kf.predict(slow, 0.0), 0.5 * step * 0.1, 5.0)
            diff = _disagreement(fast, slow)
            assert not diff, f"long chain step={step}: {diff}"
            assert _psd_problem(fast) == "", f"long chain step={step}"

    def test_singular_innovation_rejected_by_both(self):
        # Exact position sensing with an exact prior position: P + R is
        # singular; both filters refuse the update.
        bounds = NoiseBounds(delta_p=0.0, delta_v=1.0, delta_a=1.0)
        fast = KalmanState(
            time=0.0, position=1.0, velocity=2.0, p00=0.0, p01=0.0, p11=1.0
        )
        with pytest.raises(FilterError):
            KalmanFilter(bounds).update_floats(fast, 1.0, 2.0)
        with pytest.raises(FilterError):
            kalman_oracle.KalmanFilter(0.1, bounds).update(
                _oracle_state(fast), 1.0, 2.0
            )


# ----------------------------------------------------------------------
# Field helpers against the scalar object path they replaced
# ----------------------------------------------------------------------
#: Values that stress the projection and the finiteness checks.
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e-300, 1e300, math.inf, -math.inf, math.nan]
N_HELPER_CHAINS = 2000


def _bits(values) -> Tuple:
    """Each value's type and exact bits (``-0.0`` and NaN told apart)."""
    return tuple((type(v).__name__, float(v).hex()) for v in values)


def _result(call):
    """The fields ``call`` returned as bits, or its error type and message."""
    try:
        return _bits(call())
    except FilterError as exc:
        return (type(exc), str(exc))


def _helper_pair(bounds: NoiseBounds, dt: float = 0.1):
    return KalmanFilter(bounds), kalman_oracle.ScalarKalmanFilter(dt, bounds)


def _special_fields(rng: np.random.Generator) -> Tuple[float, ...]:
    """Six state fields, each a special value or an ordinary one."""
    return tuple(
        SPECIAL[int(rng.integers(len(SPECIAL)))]
        if rng.random() < 0.3
        else float(rng.uniform(-3.0, 3.0))
        for _ in range(6)
    )


class TestFieldHelpers:
    """``extrapolate_floats``/``update_floats`` bit for bit, or the same error.

    The reference is :class:`tests.kalman_oracle.ScalarKalmanFilter`, the
    scalar path on checked ``KalmanState`` values with the projection
    through ``max``/``min``.
    """

    def test_irregular_chains(self):
        mismatches: List[str] = []
        for seed in range(N_HELPER_CHAINS):
            rng = np.random.default_rng(seed)
            deltas = 10.0 ** rng.uniform(-3.0, 1.0, size=3)
            fast, slow = _helper_pair(NoiseBounds(*deltas), float(rng.uniform(0.02, 0.5)))
            fields = KalmanFilter.initial_state(
                float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(-10.0, 10.0)),
                float(rng.uniform(-5.0, 5.0)),
                *(10.0 ** rng.uniform(-4.0, 2.0, size=2)),
            )
            state = fields
            for step in range(int(rng.integers(2, 12))):
                if rng.random() < 0.5:
                    # Irregular gaps, some of them exactly zero.
                    gap = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 1.0))
                    accel = float(rng.uniform(-6.0, 6.0))
                    ours = _result(lambda: fast.extrapolate_floats(fields, accel, gap))
                    theirs = _result(lambda: slow.extrapolate(state, accel, gap))
                    fields = fast.extrapolate_floats(fields, accel, gap)
                    state = slow.extrapolate(state, accel, gap)
                else:
                    z_p = state.position + float(rng.uniform(-2.0, 2.0)) * deltas[0]
                    z_v = state.velocity + float(rng.uniform(-2.0, 2.0)) * deltas[1]
                    ours = _result(lambda: fast.update_floats(fields, z_p, z_v))
                    theirs = _result(lambda: slow.update(state, z_p, z_v))
                    fields = fast.update_floats(fields, z_p, z_v)
                    state = slow.update(state, z_p, z_v)
                if ours != theirs:
                    mismatches.append(f"seed={seed} step={step}: {ours} != {theirs}")
                    break
        _assert_none(mismatches, "helper steps differ from the scalar path")

    def test_noiseless_r(self):
        fast, slow = _helper_pair(NoiseBounds(delta_p=0.0, delta_v=0.0, delta_a=0.7))
        for fields in [(0.1, 5.0, 8.0, 1.0, 0.5, 2.0), (3, -0.0, 1, 0.0, 0.0, 0.0)]:
            for z_p, z_v in [(5.5, 8.5), (-0.0, 3), (math.nan, 1.0), (1.0, math.inf)]:
                ours = _result(lambda: fast.update_floats(fields, z_p, z_v))
                theirs = _result(lambda: slow.update(fields, z_p, z_v))
                assert ours == theirs, (fields, z_p, z_v)

    def test_singular_innovation(self):
        fast, slow = _helper_pair(NoiseBounds(delta_p=0.0, delta_v=1.0, delta_a=1.0))
        for fields in [(0.0, 1.0, 2.0, 0.0, 0.0, 1.0), (0.0, 1.0, 2.0, -0.0, 0.0, 0.0)]:
            ours = _result(lambda: fast.update_floats(fields, 1.0, 2.0))
            theirs = _result(lambda: slow.update(fields, 1.0, 2.0))
            assert ours == theirs
            assert ours[0] is FilterError and "singular" in ours[1]

    def test_special_inputs(self):
        # Non-finite and signed-zero fields, accelerations, horizons and
        # measurements: the same fields or the same error and message.
        rng = np.random.default_rng(7)
        raised = finished = 0
        for case in range(3000):
            fast, slow = _helper_pair(
                NoiseBounds(*[SPECIAL[int(rng.integers(7))] ** 2 for _ in range(3)])
                if rng.random() < 0.5
                else NoiseBounds.uniform_all(float(rng.uniform(0.1, 2.0)))
            )
            fields = _special_fields(rng)
            a, dt, z_p, z_v = (
                SPECIAL[int(rng.integers(len(SPECIAL)))]
                if rng.random() < 0.3
                else float(rng.uniform(-1.0, 1.0))
                for _ in range(4)
            )
            for ours, theirs in [
                (
                    _result(lambda: fast.extrapolate_floats(fields, a, dt)),
                    _result(lambda: slow.extrapolate(fields, a, dt)),
                ),
                (
                    _result(lambda: fast.update_floats(fields, z_p, z_v)),
                    _result(lambda: slow.update(fields, z_p, z_v)),
                ),
            ]:
                assert ours == theirs, f"case {case}: {ours} != {theirs}"
                if ours and ours[0] is FilterError:
                    raised += 1
                else:
                    finished += 1
        assert raised >= 500 and finished >= 500, (raised, finished)

    def test_projection_keeps_max_min_semantics(self):
        values = SPECIAL + [3.0, -2.0]
        for p00 in values:
            for p01 in values:
                for p11 in values:
                    for floor in (0.0, -0.0, 0.5):
                        ours = kalman._project_psd(p00, p01, p11, floor)
                        theirs = kalman_oracle._project_psd(p00, p01, p11, floor)
                        assert _bits(ours) == _bits(theirs), (p00, p01, p11, floor)

    def test_wrappers_return_the_helpers_fields(self):
        # The replay filter is what names the helpers' fields as states.
        bounds = NoiseBounds.uniform_all(0.8)
        fast, _ = _helper_pair(bounds)
        replay = ReplayKalmanFilter(KalmanFilter(bounds))
        first = replay.on_sensor_reading(_reading(0.5, 1.0, 2.0, 0.4))
        updated = replay.on_sensor_reading(_reading(0.6, 1.1, 2.1, -0.3))
        assert type(updated) is KalmanState
        predicted = fast.extrapolate_floats(first, 0.4, 0.6 - 0.5)
        assert _bits(updated) == _bits(fast.update_floats(predicted, 1.1, 2.1))
        ahead = replay.estimate_at(0.67)
        assert type(ahead) is KalmanState
        assert _bits(ahead) == _bits(fast.extrapolate_floats(updated, -0.3, 0.67 - 0.6))
        assert replay.estimate_at(0.6) is updated


def _reading(time: float, position: float, velocity: float, accel: float):
    return SensorReading(
        target=1, time=time, position=position, velocity=velocity, acceleration=accel
    )


# ----------------------------------------------------------------------
# Episode level
# ----------------------------------------------------------------------
PAPER = ExperimentConfig()
N_EPISODES = 20
EPISODE_SEED = 2024


def _comm(setting: str):
    if setting == "comm_storm":
        return build_comm(
            {"dt_m": 0.1, "dt_s": 0.1, "sensor_noise": 1.0, "faults": STORM_FAULTS}
        )
    return PAPER.comm_setting(setting)


def _fingerprints(ultimate, scenario, setting: str):
    engine = SimulationEngine(
        scenario,
        _comm(setting),
        SimulationConfig(max_time=PAPER.max_time, record_trajectories=False),
    )
    runner = BatchRunner(engine, EstimatorKind.FILTERED)
    return [
        (
            result.outcome,
            result.steps,
            result.emergency_steps,
            result.reaching_time,
            result.collision_time,
            result.eta,
        )
        for result in runner.run_batch(ultimate, N_EPISODES, seed=EPISODE_SEED)
    ]


@pytest.fixture(scope="module")
def ultimate(tiny_aggressive_spec, scenario):
    """The ultimate compound planner around a cheaply trained NN."""
    return build_trio(tiny_aggressive_spec, scenario, PAPER).ultimate


class TestEpisodeLevel:
    @pytest.mark.parametrize("setting", [*SETTING_NAMES, "comm_storm"])
    def test_episodes_identical_with_oracle(
        self, setting, ultimate, scenario, monkeypatch
    ):
        fast = _fingerprints(ultimate, scenario, setting)
        # The matrix filter's dt serves only its predict, which the
        # information filter never calls.
        monkeypatch.setattr(
            info_filter,
            "KalmanFilter",
            functools.partial(kalman_oracle.KalmanFilter, PAPER.dt_s),
        )
        slow = _fingerprints(ultimate, scenario, setting)
        differing = [
            f"{setting} episode {index}: fast={ours} oracle={theirs}"
            for index, (ours, theirs) in enumerate(zip(fast, slow))
            if ours != theirs
        ]
        assert not differing, "\n".join(differing)
