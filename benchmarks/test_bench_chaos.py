"""Benchmark: chaos certification of the shielded compound planner.

Sweeps the compound planner (information filter + monitor + emergency
planner, with a fault-injected embedded planner) across a grid of
channel fault models and engine-level sensor dropout — the fault
classes the paper's guarantee covers — and asserts **zero collisions**
in every cell.  A final cell re-runs one configuration under the batch
runner's watchdog with an injected worker crash, recovered by the
campaign retry rule, and asserts the results are bit-identical to the
in-process reference.

Run via ``make chaos`` (~30 s at the default batch size); scale with
``REPRO_BENCH_SIMS`` like the other benchmarks.
"""

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.runner import run_chunk_attempts
from repro.comm.faults import (
    Duplication,
    FixedDelay,
    GaussianJitter,
    GilbertElliottLoss,
    UniformJitter,
    compose,
)
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.faults import (
    FaultPlan,
    FaultyPlanner,
    PlannerFault,
    PlannerFaultKind,
    SensorFault,
    SensorFaultKind,
    StepWindow,
    WorkerChaosOnce,
)
from repro.planners.constant import ConstantPlanner
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.runner import BatchRunner, EstimatorKind

from conftest import BENCH_SIMS

#: Episodes per grid cell; the cap certifies shape, not statistics.
CHAOS_SIMS = max(8, BENCH_SIMS // 10)

#: The channel fault grid — every mechanism plus their composition.
FAULT_GRID = [
    (
        "burst loss",
        GilbertElliottLoss(p_enter_burst=0.05, p_exit_burst=0.3),
    ),
    (
        "reordering jitter",
        UniformJitter(0.0, 0.35),
    ),
    (
        "jitter + duplication",
        compose(
            GaussianJitter(mean=0.15, std=0.1, high=0.4),
            Duplication(0.3, lag=0.05),
        ),
    ),
    (
        "comm storm",
        compose(
            GilbertElliottLoss(p_enter_burst=0.1, p_exit_burst=0.3),
            FixedDelay(0.2),
            UniformJitter(0.0, 0.3),
            Duplication(0.2, lag=0.1),
        ),
    ),
]


def _comm(faults):
    return CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        sensor_bounds=NoiseBounds.uniform_all(1.0),
        faults=faults,
    )


def _covered_fault_plan():
    """Sensor dropout only — the sensor fault class the theorem covers."""
    return FaultPlan(
        sensor_faults=(
            SensorFault(
                window=StepWindow(20, 120),
                kind=SensorFaultKind.DROPOUT,
                probability=0.5,
            ),
        )
    )


def _shielded_planner(scenario):
    """Compound planner around a fault-injected embedded planner."""
    embedded = FaultyPlanner(
        ConstantPlanner(2.0),
        [
            PlannerFault(StepWindow(20, 35), PlannerFaultKind.EXCEPTION),
            PlannerFault(StepWindow(60, 75), PlannerFaultKind.NAN),
            PlannerFault(StepWindow(90, 100), PlannerFaultKind.LATENCY),
        ],
    )
    return CompoundPlanner(
        nn_planner=embedded,
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
    )


def _config():
    return SimulationConfig(
        max_time=10.0,
        record_trajectories=False,
        fault_plan=_covered_fault_plan(),
    )


def _fingerprint(result):
    return (
        result.outcome,
        result.reaching_time,
        result.collision_time,
        result.steps,
        result.emergency_steps,
        result.sensor_faults_injected,
        tuple(
            (i, s.sent, s.dropped, s.delivered, s.duplicated, s.out_of_order)
            for i, s in sorted(result.channel_stats.items())
        ),
    )


def _run_grid():
    scenario = LeftTurnScenario()
    rows = []
    for name, faults in FAULT_GRID:
        engine = SimulationEngine(scenario, _comm(faults), _config())
        runner = BatchRunner(engine, EstimatorKind.FILTERED)
        results = runner.run_batch(
            _shielded_planner(scenario), CHAOS_SIMS, seed=29
        )
        stats = [s for r in results for s in r.channel_stats.values()]
        rows.append(
            {
                "cell": name,
                "n": len(results),
                "collisions": sum(1 for r in results if not r.is_safe),
                "emergency": sum(r.emergency_frequency for r in results)
                / len(results),
                "sensor_faults": sum(r.sensor_faults_injected for r in results),
                "dropped": sum(s.dropped for s in stats),
                "duplicated": sum(s.duplicated for s in stats),
                "out_of_order": sum(s.out_of_order for s in stats),
            }
        )
    return rows


def _render(rows):
    header = (
        f"{'cell':<22}{'n':>4}{'coll':>6}{'emerg':>8}"
        f"{'sens':>6}{'drop':>7}{'dup':>6}{'ooo':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['cell']:<22}{row['n']:>4}{row['collisions']:>6}"
            f"{row['emergency']:>8.3f}{row['sensor_faults']:>6}"
            f"{row['dropped']:>7}{row['duplicated']:>6}{row['out_of_order']:>6}"
        )
    return "\n".join(lines)


@pytest.mark.benchmark(group="chaos")
def test_chaos_grid_zero_collisions(benchmark, run_once):
    rows = run_once(benchmark, _run_grid)
    print()
    print(_render(rows))
    for row in rows:
        assert row["collisions"] == 0, f"collision under {row['cell']}"
    # The grid must actually exercise every fault mechanism.
    assert any(row["dropped"] > 0 for row in rows)
    assert any(row["duplicated"] > 0 for row in rows)
    assert any(row["out_of_order"] > 0 for row in rows)
    assert any(row["sensor_faults"] > 0 for row in rows)


@pytest.mark.benchmark(group="chaos")
def test_chaos_parallel_bit_identity_under_crash(benchmark, run_once, tmp_path):
    """In-process vs watchdog-with-worker-crash on the storm cell, the
    crashed index recovered by :func:`run_chunk_attempts`."""
    scenario = LeftTurnScenario()
    _, faults = FAULT_GRID[-1]
    chaos = WorkerChaosOnce(str(tmp_path / "crash"), mode="exit")

    def _both():
        sequential = BatchRunner(
            SimulationEngine(scenario, _comm(faults), _config()),
            EstimatorKind.FILTERED,
        ).run_batch(_shielded_planner(scenario), CHAOS_SIMS, seed=31)
        watched = BatchRunner(
            SimulationEngine(scenario, _comm(faults), _config()),
            estimator_kind=EstimatorKind.FILTERED,
            chaos=chaos,
        )
        planner = _shielded_planner(scenario)
        recovered = run_chunk_attempts(
            lambda indices: watched.run_indices_detailed(
                planner, indices, CHAOS_SIMS, 31
            ),
            list(range(CHAOS_SIMS)),
            "0" * 64,
            0,
            BackoffPolicy(base_delay=0.0, jitter=0.0),
            lambda delay: None,
            lambda attempt, delay: None,
        )
        return sequential, recovered

    sequential, recovered = run_once(benchmark, _both)
    assert not chaos.armed()  # the worker crash really fired
    assert recovered.n_failed == 0
    parallel = recovered.completed
    assert [_fingerprint(r) for r in parallel] == [
        _fingerprint(r) for r in sequential
    ]
    assert all(r.is_safe for r in parallel)
