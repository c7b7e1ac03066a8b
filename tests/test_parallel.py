"""Tests for the batch runner's process pool (``n_workers > 1``)."""

import pytest

from repro.comm.disturbance import messages_delayed
from repro.errors import SimulationError
from repro.planners.constant import ConstantPlanner
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.runner import BatchRunner, EstimatorKind
from tests.batch_reference import reference_batch


def _comm():
    return CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        disturbance=messages_delayed(0.25, 0.3),
        sensor_bounds=NoiseBounds.uniform_all(1.0),
    )


def _config():
    return SimulationConfig(max_time=8.0, record_trajectories=False)


def _engine(scenario):
    return SimulationEngine(scenario, _comm(), _config())


class TestEquivalence:
    def test_matches_sequential_runner_exactly(self, scenario):
        planner = ConstantPlanner(2.0)
        sequential = reference_batch(
            _engine(scenario), planner, EstimatorKind.RAW, 8, 11
        )
        parallel = BatchRunner(
            _engine(scenario),
            estimator_kind=EstimatorKind.RAW,
            n_workers=3,
        ).run_batch(planner, 8, seed=11)
        assert len(parallel) == len(sequential)
        for a, b in zip(parallel, sequential):
            assert a.outcome == b.outcome
            assert a.reaching_time == b.reaching_time
            assert a.steps == b.steps

    def test_single_worker_path(self, scenario):
        runner = BatchRunner(
            _engine(scenario), estimator_kind=EstimatorKind.RAW, n_workers=1,
        )
        results = runner.run_batch(ConstantPlanner(2.0), 3, seed=0)
        assert len(results) == 3

    def test_more_workers_than_sims(self, scenario):
        runner = BatchRunner(
            _engine(scenario), estimator_kind=EstimatorKind.RAW, n_workers=8,
        )
        results = runner.run_batch(ConstantPlanner(2.0), 2, seed=0)
        assert len(results) == 2


class TestValidation:
    def test_bad_batch_size(self, scenario):
        runner = BatchRunner(_engine(scenario), n_workers=2)
        with pytest.raises(SimulationError):
            runner.run_batch(ConstantPlanner(0.0), 0)

    def test_bad_worker_count(self, scenario):
        with pytest.raises(SimulationError):
            BatchRunner(_engine(scenario), n_workers=0)
