"""Benchmark: the platoon (multi-oncoming) left-turn extension.

Shape assertions:

* the pure aggressive gap-acceptance expert is meaningfully unsafe
  against a platoon;
* the shielded version is 100 % safe for every platoon size;
* reaching time grows with platoon size (more traffic, fewer gaps) for
  the shielded planner.
"""

import pytest

from repro.comm.faults import messages_delayed
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.scenarios.left_turn.multi import MultiOncomingLeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import AggregateStats
from repro.sim.runner import BatchRunner, EstimatorKind

PLATOON_SIZES = (1, 2, 3)


@pytest.mark.benchmark(group="multi")
def test_platoon_shielding(benchmark, sweep_config, run_once):
    n_sims = max(30, sweep_config.n_sims // 2)

    def run():
        rows = {}
        for size in PLATOON_SIZES:
            scenario = MultiOncomingLeftTurnScenario(n_oncoming=size)
            engine = SimulationEngine(
                scenario,
                CommSetup(
                    0.1,
                    0.1,
                    messages_delayed(0.25, 0.3),
                    NoiseBounds.uniform_all(1.0),
                ),
                SimulationConfig(max_time=40.0, record_trajectories=False),
            )
            pure = BatchRunner(engine, EstimatorKind.RAW).run_batch(
                scenario.gap_expert(aggressive=True), n_sims, seed=31
            )
            shielded_planner = CompoundPlanner(
                nn_planner=scenario.gap_expert(aggressive=True),
                emergency_planner=scenario.emergency_planner(),
                monitor=RuntimeMonitor(scenario.safety_model()),
                limits=scenario.ego_limits,
            )
            shielded = BatchRunner(
                engine, EstimatorKind.FILTERED
            ).run_batch(shielded_planner, n_sims, seed=31)
            rows[size] = (
                AggregateStats.from_results(pure),
                AggregateStats.from_results(shielded),
            )
        return rows

    rows = run_once(benchmark, run)

    print()
    header = (
        f"{'platoon':>8} {'pure safe':>10} {'pure rt':>8} "
        f"{'shielded safe':>14} {'shielded rt':>12} {'emergency':>10}"
    )
    print(header)
    print("-" * len(header))
    for size, (pure, shielded) in rows.items():
        print(
            f"{size:>8} {pure.safe_rate:>9.1%} "
            f"{pure.mean_reaching_time:>7.2f}s {shielded.safe_rate:>13.1%} "
            f"{shielded.mean_reaching_time:>11.2f}s "
            f"{shielded.mean_emergency_frequency:>9.1%}"
        )

    for size, (pure, shielded) in rows.items():
        assert shielded.safe_rate == 1.0, size
    # The pure expert is unsafe against real traffic.
    assert rows[2][0].safe_rate < 0.95
    # More traffic, slower (shielded) crossings.
    assert (
        rows[PLATOON_SIZES[-1]][1].mean_reaching_time
        >= rows[PLATOON_SIZES[0]][1].mean_reaching_time
    )
