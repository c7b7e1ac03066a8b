"""Quickstart: wrap an NN planner in the safety-guaranteed framework.

Trains a small aggressive NN planner for the unprotected left turn,
wraps it in the compound planner (runtime monitor + emergency planner +
information filter), and runs a handful of simulations under lossy
communication — demonstrating that the wrapper turns an unsafe planner
into a safe one at little efficiency cost.

Run: ``python examples/quickstart.py``
"""

from repro import (
    AggregateStats,
    BatchRunner,
    CommSetup,
    CompoundPlanner,
    EstimatorKind,
    LeftTurnScenario,
    NoiseBounds,
    RuntimeMonitor,
    SimulationEngine,
    messages_delayed,
    train_left_turn_planner,
)
from repro.planners.training_data import DemonstrationConfig
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator


def main() -> None:
    scenario = LeftTurnScenario()

    # 1. Any NN-based planner: here, an aggressive one trained by
    #    imitation (fast but unsafe on its own).
    print("training the aggressive NN planner (a few seconds)...")
    spec = train_left_turn_planner(
        "aggressive",
        scenario.geometry,
        scenario.ego_limits,
        scenario.oncoming_limits,
        seed=7,
        demo_config=DemonstrationConfig(n_random=2000, n_rollouts=30),
        epochs=100,
    )

    # 2. The compound planner: monitor + emergency planner around it,
    #    with the aggressive unsafe-set estimate feeding the NN.
    aggressive_windows = PassingWindowEstimator(
        scenario.geometry, scenario.oncoming_limits, aggressive=True
    )
    compound = CompoundPlanner(
        nn_planner=spec.build_planner(aggressive_windows, scenario.ego_limits),
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
    )

    # 3. A disturbed communication environment: messages delayed by
    #    0.25 s and dropped with probability 0.5; noisy sensors.
    engine = SimulationEngine(
        scenario,
        CommSetup(
            dt_m=0.1,
            dt_s=0.1,
            faults=messages_delayed(0.25, 0.5),
            sensor_bounds=NoiseBounds.uniform_all(1.0),
        ),
    )

    # 4. Run both planners on identical workloads.
    n = 40
    pure_results = BatchRunner(engine, EstimatorKind.RAW).run_batch(
        spec.natural_planner(scenario.ego_limits), n, seed=1
    )
    compound_results = BatchRunner(engine, EstimatorKind.FILTERED).run_batch(
        compound, n, seed=1
    )

    for label, results in (
        ("pure NN planner      ", pure_results),
        ("compound (shielded)  ", compound_results),
    ):
        stats = AggregateStats.from_results(results)
        print(
            f"{label} safe: {stats.safe_rate:6.1%}   "
            f"mean reaching time: {stats.mean_reaching_time:5.2f}s   "
            f"mean eta: {stats.mean_eta:+.3f}   "
            f"emergency steps: {stats.mean_emergency_frequency:5.1%}"
        )

    compound_stats = AggregateStats.from_results(compound_results)
    assert compound_stats.safe_rate == 1.0, "the safety guarantee must hold"
    print("\nThe compound planner is 100% safe, as the framework guarantees.")


if __name__ == "__main__":
    main()
