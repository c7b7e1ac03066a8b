"""Edge-case tests for the simulation engine and its configuration."""

import pytest

from repro.comm.faults import NoFault, no_disturbance
from repro.errors import ConfigurationError, SimulationError
from repro.planners.constant import ConstantPlanner
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.utils.rng import RngStream


def _comm(dt_m=0.1, dt_s=0.1):
    return CommSetup(
        dt_m=dt_m,
        dt_s=dt_s,
        faults=no_disturbance(),
        sensor_bounds=NoiseBounds.uniform_all(1.0),
    )


class TestConfigValidation:
    def test_nonpositive_max_time_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_time=0.0)

    def test_misaligned_periods_rejected(self, scenario):
        with pytest.raises(ConfigurationError):
            SimulationEngine(scenario, _comm(dt_m=0.07))

    def test_missing_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            CommSetup(0.1, 0.1, None, NoiseBounds.noiseless())

    def test_comm_perfect_factory(self):
        comm = CommSetup.perfect(dt_m=0.2)
        assert comm.dt_m == comm.dt_s == 0.2
        assert comm.faults == NoFault()
        assert comm.sensor_bounds.delta_p == 0.0


class TestShortHorizons:
    def test_single_step_horizon(self, scenario):
        """max_time == dt_c: exactly one planned step, then timeout."""
        engine = SimulationEngine(
            scenario, _comm(), SimulationConfig(max_time=0.05)
        )
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        result = engine.run(ConstantPlanner(0.0), factory, RngStream(0))
        assert result.outcome is Outcome.TIMEOUT
        assert result.steps == 1

    def test_sub_step_horizon_runs_nothing(self, scenario):
        """max_time below dt_c plans zero steps: a configuration bug."""
        engine = SimulationEngine(
            scenario, _comm(), SimulationConfig(max_time=0.01)
        )
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        with pytest.raises(SimulationError):
            engine.run(ConstantPlanner(0.0), factory, RngStream(0))


class TestMismatchedRates:
    def test_sensor_slower_than_messages(self, scenario):
        engine = SimulationEngine(
            scenario,
            _comm(dt_m=0.1, dt_s=0.4),
            SimulationConfig(max_time=5.0, record_trajectories=False),
        )
        factory = make_estimator_factory(EstimatorKind.FILTERED, engine)
        result = engine.run(ConstantPlanner(1.0), factory, RngStream(3))
        assert result.steps > 0

    def test_messages_slower_than_sensor(self, scenario):
        engine = SimulationEngine(
            scenario,
            _comm(dt_m=0.8, dt_s=0.1),
            SimulationConfig(max_time=5.0, record_trajectories=False),
        )
        factory = make_estimator_factory(EstimatorKind.FILTERED, engine)
        result = engine.run(ConstantPlanner(1.0), factory, RngStream(3))
        assert result.channel_stats[1].sent < 10  # sparse broadcasting


class TestAccessors:
    def test_engine_exposes_components(self, scenario):
        comm = _comm()
        engine = SimulationEngine(scenario, comm)
        assert engine.scenario is scenario
        assert engine.comm is comm
        assert engine.clock.dt_c == scenario.dt_c
