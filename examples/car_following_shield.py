"""The framework on a second scenario: shielding a tailgater.

The paper introduces the unsafe set with a car-following example
(``|p_0 - p_i| < p_gap``); this example instantiates the full framework
on that scenario and compares three ego planners behind a randomly
driven leader:

* a classic IDM planner (model-based baseline: smooth and safe);
* a naive gap-chaser (fast, tailgates, violates the safety gap);
* the same gap-chaser wrapped in the compound planner.

The wrapped tailgater keeps the chaser's speed where it is safe and
brakes exactly when the braking-envelope monitor demands — safe *and*
faster than IDM.

Run: ``python examples/car_following_shield.py [--sims N]``
"""

import argparse

from repro import (
    AggregateStats,
    BatchRunner,
    CommSetup,
    CompoundPlanner,
    EstimatorKind,
    NoiseBounds,
    RuntimeMonitor,
    SimulationConfig,
    SimulationEngine,
    messages_delayed,
)
from repro.planners.idm import GapChaserPlanner, IDMPlanner
from repro.scenarios.car_following import CarFollowingScenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sims", type=int, default=50)
    args = parser.parse_args()

    scenario = CarFollowingScenario()
    engine = SimulationEngine(
        scenario,
        CommSetup(
            dt_m=0.1,
            dt_s=0.1,
            faults=messages_delayed(0.25, 0.3),
            sensor_bounds=NoiseBounds.uniform_all(0.5),
        ),
        SimulationConfig(max_time=30.0, record_trajectories=False),
    )

    shielded = CompoundPlanner(
        nn_planner=GapChaserPlanner(scenario.ego_limits),
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
    )

    rows = (
        ("IDM (model-based)   ", IDMPlanner(scenario.ego_limits),
         EstimatorKind.RAW),
        ("gap chaser (unsafe) ", GapChaserPlanner(scenario.ego_limits),
         EstimatorKind.RAW),
        ("gap chaser shielded ", shielded, EstimatorKind.FILTERED),
    )
    print(
        f"car following: keep a {scenario.p_gap:.0f} m gap while covering "
        f"{scenario.travel_distance:.0f} m behind a wandering leader\n"
    )
    stats_by_label = {}
    for label, planner, kind in rows:
        results = BatchRunner(engine, kind).run_batch(
            planner, args.sims, seed=3
        )
        stats = AggregateStats.from_results(results)
        stats_by_label[label] = stats
        print(
            f"{label} safe: {stats.safe_rate:6.1%}   reaching: "
            f"{stats.mean_reaching_time:6.2f}s   eta: {stats.mean_eta:+.4f}  "
            f" emergency: {stats.mean_emergency_frequency:5.1%}"
        )

    shielded_stats = stats_by_label["gap chaser shielded "]
    assert shielded_stats.safe_rate == 1.0
    print(
        "\nThe shielded tailgater is 100% safe — same framework, different "
        "scenario: only the safety model and emergency planner changed."
    )


if __name__ == "__main__":
    main()
