"""Tests for the closed-loop simulation engine."""

import pytest

from repro.comm.disturbance import messages_delayed
from repro.planners.constant import ConstantPlanner, FullBrakePlanner
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import BatchRunner, EstimatorKind, make_estimator_factory
from repro.errors import SafetyViolationError, SimulationError
from repro.utils.rng import RngStream, spawn_streams


def _engine(scenario, max_time=30.0, **kwargs):
    comm = CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        disturbance=messages_delayed(0.25, 0.2),
        sensor_bounds=NoiseBounds.uniform_all(1.0),
    )
    return SimulationEngine(
        scenario, comm, SimulationConfig(max_time=max_time, **kwargs)
    )


class TestTerminalClassification:
    def test_full_throttle_reaches_or_collides(self, scenario):
        engine = _engine(scenario)
        factory = make_estimator_factory(
            EstimatorKind.RAW, engine
        )
        result = engine.run(
            ConstantPlanner(4.0), factory, RngStream(3)
        )
        assert result.outcome in (Outcome.REACHED, Outcome.COLLISION)

    def test_full_brake_times_out(self, scenario):
        engine = _engine(scenario, max_time=5.0)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        result = engine.run(FullBrakePlanner(scenario.ego_limits), factory,
                            RngStream(3))
        assert result.outcome is Outcome.TIMEOUT
        assert result.eta == 0.0

    def test_reached_time_positive(self, scenario):
        engine = _engine(scenario)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        result = engine.run(ConstantPlanner(2.0), factory, RngStream(7))
        if result.outcome is Outcome.REACHED:
            assert result.reaching_time > 0.0
            assert result.eta == pytest.approx(1.0 / result.reaching_time)

    def test_strict_safety_raises_on_collision(self, scenario):
        engine = _engine(scenario, strict_safety=True)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        # Full throttle from -30 will reach the area around when the
        # oncoming vehicle does in many seeds; find one that collides.
        for seed in range(20):
            try:
                result = engine.run(
                    ConstantPlanner(4.0), factory, RngStream(seed)
                )
            except SafetyViolationError:
                return
            assert result.outcome is not Outcome.COLLISION
        pytest.skip("no colliding seed found in range")


class TestRecording:
    def test_trajectories_recorded(self, scenario):
        engine = _engine(scenario)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        result = engine.run(ConstantPlanner(2.0), factory, RngStream(1))
        assert len(result.trajectories) == 2
        assert len(result.trajectories[0]) > 10
        # Time-aligned.
        assert result.trajectories[0].start_time == 0.0

    def test_recording_disabled(self, scenario):
        engine = _engine(scenario, record_trajectories=False)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        result = engine.run(ConstantPlanner(2.0), factory, RngStream(1))
        assert result.trajectories == []

    def test_channel_stats_present(self, scenario):
        engine = _engine(scenario)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        result = engine.run(ConstantPlanner(2.0), factory, RngStream(1))
        assert 1 in result.channel_stats
        assert result.channel_stats[1].sent > 0

    def test_steps_counted(self, scenario):
        engine = _engine(scenario, max_time=2.0)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        result = engine.run(FullBrakePlanner(scenario.ego_limits), factory,
                            RngStream(1))
        assert result.steps == 40  # 2.0 s of 0.05 s steps


class TestDeterminism:
    def test_same_stream_same_outcome(self, scenario):
        engine = _engine(scenario)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)

        def run(seed):
            return engine.run(ConstantPlanner(3.0), factory, RngStream(seed))

        a, b = run(5), run(5)
        assert a.outcome == b.outcome
        assert a.reaching_time == b.reaching_time
        assert a.steps == b.steps

    def test_different_streams_vary_workload(self, scenario):
        engine = _engine(scenario)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        starts = set()
        for seed in range(8):
            result = engine.run(
                ConstantPlanner(0.0), factory, RngStream(seed)
            )
            starts.add(round(result.trajectories[1][0].position, 3))
        assert len(starts) > 1

    def test_paired_workloads_across_planners(self, scenario):
        """Same stream -> identical oncoming trajectory, any planner."""
        engine = _engine(scenario)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        a = engine.run(ConstantPlanner(0.0), factory, RngStream(9))
        b = engine.run(ConstantPlanner(4.0), factory, RngStream(9))
        ta, tb = a.trajectories[1], b.trajectories[1]
        n = min(len(ta), len(tb))
        for i in range(0, n, 20):
            assert ta[i].position == pytest.approx(tb[i].position)


class TestBatchRunner:
    def test_batch_size(self, scenario):
        engine = _engine(scenario, max_time=5.0, record_trajectories=False)
        runner = BatchRunner(engine, EstimatorKind.RAW)
        results = runner.run_batch(ConstantPlanner(2.0), 5, seed=0)
        assert len(results) == 5

    def test_batch_reproducible(self, scenario):
        engine = _engine(scenario, max_time=5.0, record_trajectories=False)
        runner = BatchRunner(engine, EstimatorKind.RAW)
        a = runner.run_batch(ConstantPlanner(2.0), 4, seed=1)
        b = runner.run_batch(ConstantPlanner(2.0), 4, seed=1)
        assert [r.outcome for r in a] == [r.outcome for r in b]

    def test_invalid_batch_size(self, scenario):
        engine = _engine(scenario)
        runner = BatchRunner(engine, EstimatorKind.RAW)
        with pytest.raises(SimulationError):
            runner.run_batch(ConstantPlanner(0.0), 0)

    def test_run_one(self, scenario):
        engine = _engine(scenario, max_time=5.0)
        runner = BatchRunner(engine, EstimatorKind.FILTERED)
        result = runner.run_one(ConstantPlanner(2.0), seed=4)
        assert result.steps > 0
