"""The load-bearing observability invariant: tracing never perturbs a run.

Every scenario × fault setting is executed twice — once untraced (the
``NullObserver`` default) and once with a full :class:`Observer` wired
through the engine, compound planner, information filters, and channels
— and the two :class:`SimulationResult`\\ s must serialise to identical
bytes, trajectories included.  Any divergence (an extra RNG draw, a
timing value leaking into control flow) fails here before it can
invalidate a certificate.
"""

import pytest

from repro.comm.faults import (
    Duplication,
    IndependentLoss,
    NoFault,
    UniformJitter,
    compose,
)
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.obs.observer import Observer
from repro.planners.constant import FullThrottlePlanner
from repro.scenarios.car_following import CarFollowingScenario
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.scenarios.signalized import SignalizedCrossingScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.sim.serialization import canonical_dumps, result_to_dict
from repro.utils.rng import RngStream

#: The chaos-grid composition: every fault stage the channel supports.
STORM = compose(
    IndependentLoss(0.2),
    UniformJitter(0.0, 0.25),
    Duplication(0.2, lag=0.05),
)

SCENARIOS = {
    "left_turn": LeftTurnScenario,
    "car_following": CarFollowingScenario,
    "signalized": SignalizedCrossingScenario,
}

FAULTS = {"no_faults": NoFault(), "chaos_grid": STORM}


def _run(scenario_name, faults, seed, observer=None):
    scenario = SCENARIOS[scenario_name]()
    comm = CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        sensor_bounds=NoiseBounds.uniform_all(0.5),
        faults=faults,
    )
    engine = SimulationEngine(
        scenario, comm, SimulationConfig(max_time=8.0)
    )
    planner = CompoundPlanner(
        nn_planner=FullThrottlePlanner(scenario.ego_limits),
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
        observer=observer,
    )
    factory = make_estimator_factory(
        EstimatorKind.FILTERED, engine, observer=observer
    )
    return engine.run(planner, factory, RngStream(seed), observer=observer)


def _bytes(result):
    return canonical_dumps(
        result_to_dict(result, include_trajectories=True)
    ).encode("utf-8")


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("faults_name", sorted(FAULTS))
@pytest.mark.parametrize("seed", [1, 7])
def test_traced_run_is_bit_identical(scenario_name, faults_name, seed):
    untraced = _run(scenario_name, FAULTS[faults_name], seed)
    observer = Observer()
    traced = _run(
        scenario_name, FAULTS[faults_name], seed, observer=observer
    )
    # The comparison only means something if tracing actually happened.
    assert observer.tracer.events, "traced run recorded no events"
    assert _bytes(traced) == _bytes(untraced)


def test_traced_rerun_is_self_identical():
    first = _run("left_turn", STORM, 3, observer=Observer())
    second = _run("left_turn", STORM, 3, observer=Observer())
    assert _bytes(first) == _bytes(second)
