"""Micro-benchmarks of the framework's hot paths.

These time the per-step costs that dominate a simulation campaign:
dynamics stepping, Kalman predict/update, reachability bands, passing
windows, monitor evaluation, NN inference, and a full closed-loop
episode.  They quantify the runtime-monitor overhead the paper argues is
negligible ("it does not require extra resources for safety
verification during runtime").
"""

import pytest

from repro.comm.faults import messages_delayed
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleModel
from repro.filtering.fusion import FusedEstimate
from repro.filtering.kalman import KalmanFilter
from repro.filtering.reachability import ReachabilityAnalyzer
from repro.scenarios.left_turn.passing_time import (
    aggressive_bounds,
    conservative_bounds,
    speed_limits,
)
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.utils.intervals import Interval
from repro.utils.rng import RngStream


@pytest.fixture(scope="module")
def lt_scenario(request):
    from repro.scenarios.left_turn.scenario import LeftTurnScenario

    return LeftTurnScenario()


def _estimate(lt_scenario):
    return FusedEstimate(
        time=0.0,
        position=Interval(48.0, 52.0),
        velocity=Interval(-12.5, -10.5),
        nominal=VehicleState(position=50.0, velocity=-11.5, acceleration=0.3),
        message_age=0.2,
    )


@pytest.mark.benchmark(group="micro")
def test_micro_vehicle_step(benchmark, lt_scenario):
    model = VehicleModel(lt_scenario.ego_limits)
    state = VehicleState(position=0.0, velocity=10.0)
    benchmark(model.step, state, 2.0, 0.05)


@pytest.mark.benchmark(group="micro")
def test_micro_kalman_cycle(benchmark):
    kf = KalmanFilter(0.1, NoiseBounds.uniform_all(1.0))
    state = KalmanFilter.initial_state(0.0, 50.0, -12.0, 1.0, 1.0)

    def cycle():
        pred = kf.predict(state, 0.5)
        return kf.update(pred, 49.0, -11.8)

    benchmark(cycle)


@pytest.mark.benchmark(group="micro")
def test_micro_reach_box(benchmark, lt_scenario):
    analyzer = ReachabilityAnalyzer(lt_scenario.oncoming_limits)
    benchmark(analyzer.reach_box, 50.0, 50.0, -12.0, -12.0, 0.0, 0.5)


@pytest.mark.benchmark(group="micro")
def test_micro_conservative_bounds(benchmark, lt_scenario):
    est = _estimate(lt_scenario)
    benchmark(
        conservative_bounds,
        est,
        lt_scenario.geometry,
        speed_limits(lt_scenario.oncoming_limits),
    )


@pytest.mark.benchmark(group="micro")
def test_micro_aggressive_bounds(benchmark, lt_scenario):
    est = _estimate(lt_scenario)
    benchmark(
        aggressive_bounds,
        est,
        lt_scenario.geometry,
        speed_limits(lt_scenario.oncoming_limits),
        0.5,
        1.0,
    )


@pytest.mark.benchmark(group="micro")
def test_micro_monitor_evaluation(benchmark, lt_scenario):
    from repro.core.monitor import RuntimeMonitor

    monitor = RuntimeMonitor(lt_scenario.safety_model())
    benchmark(monitor.decide, 0.0, -10.0, 11.0, {1: _estimate(lt_scenario)})


@pytest.mark.benchmark(group="micro")
def test_micro_nn_inference(benchmark, lt_scenario):
    from repro.planners.factory import train_left_turn_planner
    from repro.planners.training_data import DemonstrationConfig

    spec = train_left_turn_planner(
        "conservative",
        lt_scenario.geometry,
        lt_scenario.ego_limits,
        lt_scenario.oncoming_limits,
        seed=0,
        demo_config=DemonstrationConfig(n_random=200, n_rollouts=2),
        epochs=5,
        hidden=64,
    )
    planner = spec.natural_planner(lt_scenario.ego_limits)
    benchmark(
        planner.plan_floats, 0.0, -10.0, 11.0, 0.0, {1: _estimate(lt_scenario)}
    )


@pytest.mark.benchmark(group="micro")
def test_micro_full_episode(benchmark, lt_scenario):
    """One complete closed-loop episode with the emergency-guarded loop."""
    from repro.core.compound import CompoundPlanner
    from repro.core.monitor import RuntimeMonitor
    from repro.planners.constant import FullThrottlePlanner

    engine = SimulationEngine(
        lt_scenario,
        CommSetup(
            0.1,
            0.1,
            messages_delayed(0.25, 0.3),
            NoiseBounds.uniform_all(1.0),
        ),
        SimulationConfig(max_time=30.0, record_trajectories=False),
    )
    factory = make_estimator_factory(EstimatorKind.FILTERED, engine)
    planner = CompoundPlanner(
        nn_planner=FullThrottlePlanner(lt_scenario.ego_limits),
        emergency_planner=lt_scenario.emergency_planner(),
        monitor=RuntimeMonitor(lt_scenario.safety_model()),
        limits=lt_scenario.ego_limits,
    )

    def episode():
        return engine.run(planner, factory, RngStream(7))

    result = benchmark(episode)
    assert result.is_safe


@pytest.mark.benchmark(group="micro")
def test_micro_full_episode_traced(benchmark, lt_scenario):
    """The same episode with a live observer: the enabled-tracing cost.

    Compare against ``test_micro_full_episode`` (the disabled path) in
    the recorded ``BENCH_micro.json``; the write-only contract means the
    result must be bit-identical either way (tests/test_obs_identity.py)
    — this benchmark quantifies what the extra telemetry costs.
    """
    from repro.core.compound import CompoundPlanner
    from repro.core.monitor import RuntimeMonitor
    from repro.obs.observer import Observer
    from repro.planners.constant import FullThrottlePlanner

    engine = SimulationEngine(
        lt_scenario,
        CommSetup(
            0.1,
            0.1,
            messages_delayed(0.25, 0.3),
            NoiseBounds.uniform_all(1.0),
        ),
        SimulationConfig(max_time=30.0, record_trajectories=False),
    )

    def episode():
        observer = Observer()
        factory = make_estimator_factory(
            EstimatorKind.FILTERED, engine, observer=observer
        )
        planner = CompoundPlanner(
            nn_planner=FullThrottlePlanner(lt_scenario.ego_limits),
            emergency_planner=lt_scenario.emergency_planner(),
            monitor=RuntimeMonitor(lt_scenario.safety_model()),
            limits=lt_scenario.ego_limits,
            observer=observer,
        )
        return engine.run(planner, factory, RngStream(7), observer=observer)

    result = benchmark(episode)
    assert result.is_safe
