"""Integration tests of the paper's central claims.

These drive the full closed loop — scenario, channels, sensors,
estimators, monitor, emergency planner — and check the two halves of
Eq. (1):

* **safety** — ``eta(kappa_c) >= 0``: a compound planner never enters
  the true unsafe set, whatever the embedded planner does, under every
  communication setting (including an adversarial embedded planner that
  floors the throttle every step);
* **efficiency** — the compound planner's mean eta is at least the pure
  embedded planner's on the same workloads when the pure planner is
  unsafe.

Batches are kept moderate for test runtime; the benchmarks run the
larger, calibrated versions.
"""

import pytest

from repro.comm.faults import (
    messages_delayed,
    messages_lost,
    no_disturbance,
)
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.planners.constant import FullThrottlePlanner
from repro.planners.expert import ExpertConfig, LeftTurnExpertPlanner
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import AggregateStats, Outcome
from repro.sim.runner import BatchRunner, EstimatorKind

N_RUNS = 25

SETTINGS = {
    "no_disturbance": CommSetup(
        0.1, 0.1, no_disturbance(), NoiseBounds.uniform_all(1.0)
    ),
    "delayed_dropping": CommSetup(
        0.1, 0.1, messages_delayed(0.25, 0.5), NoiseBounds.uniform_all(1.0)
    ),
    "messages_lost": CommSetup(
        0.1, 0.1, messages_lost(), NoiseBounds.uniform_all(3.0)
    ),
}


def _engine(scenario, comm):
    return SimulationEngine(
        scenario, comm, SimulationConfig(max_time=30.0,
                                         record_trajectories=False)
    )


def _compound(scenario, embedded):
    return CompoundPlanner(
        nn_planner=embedded,
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
    )


def _aggressive_expert(scenario):
    return LeftTurnExpertPlanner(
        geometry=scenario.geometry,
        limits=scenario.ego_limits,
        window_estimator=PassingWindowEstimator(
            scenario.geometry, scenario.oncoming_limits, aggressive=True
        ),
        config=ExpertConfig.aggressive(),
    )


class TestSafetyTheorem:
    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    @pytest.mark.parametrize("kind", [EstimatorKind.RAW, EstimatorKind.FILTERED])
    def test_compound_full_throttle_never_collides(
        self, scenario, setting, kind
    ):
        """Worst-case embedded planner: flat-out throttle, every step."""
        engine = _engine(scenario, SETTINGS[setting])
        planner = _compound(
            scenario, FullThrottlePlanner(scenario.ego_limits)
        )
        results = BatchRunner(engine, kind).run_batch(
            planner, N_RUNS, seed=100
        )
        assert all(r.outcome is not Outcome.COLLISION for r in results)

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_compound_aggressive_expert_never_collides(
        self, scenario, setting
    ):
        engine = _engine(scenario, SETTINGS[setting])
        planner = _compound(scenario, _aggressive_expert(scenario))
        results = BatchRunner(engine, EstimatorKind.FILTERED).run_batch(
            planner, N_RUNS, seed=101
        )
        assert all(r.outcome is not Outcome.COLLISION for r in results)

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_compound_tiny_nn_never_collides(
        self, scenario, setting, tiny_aggressive_spec
    ):
        """Even a barely trained (sloppy) NN stays safe when wrapped."""
        engine = _engine(scenario, SETTINGS[setting])
        nn = tiny_aggressive_spec.build_planner(
            PassingWindowEstimator(
                scenario.geometry, scenario.oncoming_limits, aggressive=True
            ),
            scenario.ego_limits,
        )
        planner = _compound(scenario, nn)
        results = BatchRunner(engine, EstimatorKind.FILTERED).run_batch(
            planner, N_RUNS, seed=102
        )
        assert all(r.outcome is not Outcome.COLLISION for r in results)

    def test_compound_always_reaches_eventually(self, scenario):
        """Liveness on the default setting: no timeouts either."""
        engine = _engine(scenario, SETTINGS["no_disturbance"])
        planner = _compound(scenario, _aggressive_expert(scenario))
        results = BatchRunner(engine, EstimatorKind.FILTERED).run_batch(
            planner, N_RUNS, seed=103
        )
        assert all(r.outcome is Outcome.REACHED for r in results)


class TestEfficiencyClaim:
    def test_compound_eta_beats_unsafe_pure_planner(self, scenario):
        """eta(kappa_c) >= eta(kappa_n) in the mean when kappa_n is unsafe."""
        engine = _engine(scenario, SETTINGS["no_disturbance"])
        pure = FullThrottlePlanner(scenario.ego_limits)
        pure_results = BatchRunner(engine, EstimatorKind.RAW).run_batch(
            pure, N_RUNS, seed=104
        )
        compound = _compound(
            scenario, FullThrottlePlanner(scenario.ego_limits)
        )
        compound_results = BatchRunner(
            engine, EstimatorKind.FILTERED
        ).run_batch(compound, N_RUNS, seed=104)
        pure_eta = AggregateStats.from_results(pure_results).mean_eta
        compound_eta = AggregateStats.from_results(compound_results).mean_eta
        # Full throttle collides often; the compound planner must do
        # strictly better on eta.
        assert any(not r.is_safe for r in pure_results)
        assert compound_eta > pure_eta

    def test_emergency_steps_recorded(self, scenario):
        engine = _engine(scenario, SETTINGS["no_disturbance"])
        planner = _compound(
            scenario, FullThrottlePlanner(scenario.ego_limits)
        )
        results = BatchRunner(engine, EstimatorKind.FILTERED).run_batch(
            planner, 10, seed=105
        )
        assert any(r.emergency_steps > 0 for r in results)
