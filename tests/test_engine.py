"""Tests for the closed-loop simulation engine."""

import math

import pytest

from repro.comm.faults import messages_delayed
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.dynamics.state import VehicleState
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import PlannerTrio, build_trio
from repro.faults.planner_wrapper import FaultyPlanner
from repro.planners.base import PlanningContext
from repro.planners.constant import ConstantPlanner, FullBrakePlanner
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import BatchRunner, EstimatorKind, make_estimator_factory
from repro.errors import SafetyViolationError, SimulationError
from repro.faults.plan import (
    FaultPlan,
    PlannerFault,
    PlannerFaultKind,
    SensorFault,
    SensorFaultKind,
    StepWindow,
)
from repro.utils.rng import RngStream, spawn_streams
from tests import engine_oracle, storm
from tests.test_core import RecordingPlanner, RecordingSafetyModel


def _engine(scenario, max_time=30.0, **kwargs):
    comm = CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        faults=messages_delayed(0.25, 0.2),
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


class TestObservationPath:
    """The step loop hands the oncoming vehicle's state on as floats."""

    @pytest.mark.parametrize("name", ["ultimate", "basic"])
    def test_untraced_episode_builds_only_its_initial_states(
        self, name, scenario, tiny_aggressive_spec, tiny_conservative_spec, monkeypatch
    ):
        paper = ExperimentConfig()
        spec = tiny_aggressive_spec if name == "ultimate" else tiny_conservative_spec
        planner = getattr(build_trio(spec, scenario, paper), name)
        engine = SimulationEngine(
            scenario,
            paper.comm_setting("messages_delayed"),
            SimulationConfig(max_time=paper.max_time, record_trajectories=False),
        )
        factory = make_estimator_factory(PlannerTrio.KINDS[name], engine)
        built = []
        check = VehicleState.__post_init__

        def counting(state):
            built.append(state)
            check(state)

        monkeypatch.setattr(VehicleState, "__post_init__", counting)
        scenario.initial_state(RngStream(0))
        initial = len(built)
        built.clear()
        result = engine.run(planner, factory, RngStream(17))
        assert result.steps > 50
        assert len(built) == initial == scenario.n_vehicles

    def test_storm_episode_builds_only_its_initial_states(
        self, scenario, monkeypatch
    ):
        # The campaign-storm compound over a FaultyPlanner around a
        # ConstantPlanner, with its sensor dropout active: the faulty
        # and constant planners run on floats, so no step builds an ego
        # VehicleState or a PlanningContext.
        engine, planner = storm.build(
            scenario,
            {
                "max_time": 10.0,
                "fault_plan": {
                    "sensor_faults": [{"window": [20, 120], "kind": "dropout"}]
                },
            },
        )
        assert isinstance(planner.nn_planner, FaultyPlanner)
        factory = make_estimator_factory(EstimatorKind.FILTERED, engine)
        built = []
        contexts = []
        check = VehicleState.__post_init__
        context_init = PlanningContext.__init__

        def counting(state):
            built.append(state)
            check(state)

        def counting_context(context, *args, **kwargs):
            contexts.append(context)
            context_init(context, *args, **kwargs)

        monkeypatch.setattr(VehicleState, "__post_init__", counting)
        monkeypatch.setattr(PlanningContext, "__init__", counting_context)
        result = engine.run(planner, factory, RngStream(17))
        assert result.steps > 50
        assert planner.nn_planner.faults_injected > 0
        assert planner.embedded_failures > 0
        assert len(built) == scenario.n_vehicles
        assert contexts == []


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


class TestEgoAcceleration:
    def test_compound_context_planners_see_applied_acceleration(self, scenario):
        """The float loop hands a compound the acceleration the context loop did."""
        engine = _engine(scenario, max_time=3.0)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)

        def run(loop):
            nn = RecordingPlanner([2.0, -1.0, 0.5])
            model = RecordingSafetyModel([(False, False)])
            compound = CompoundPlanner(
                nn, RecordingPlanner([0.0]), RuntimeMonitor(model),
                scenario.ego_limits,
            )
            loop(engine, compound, factory, RngStream(3))
            return nn.seen, model.seen

        ours = run(SimulationEngine.run)
        theirs = run(engine_oracle.run)
        assert ours == theirs
        assert len(set(ours[0])) == 4  # 0 at the start, then each command


class _FloatOnlyPlanner:
    """A constant command through ``plan_floats``; ``plan`` must not be used."""

    def __init__(self, command: float = -1.0) -> None:
        self.command = command
        self.float_calls = 0
        self.times = []

    def plan_floats(self, time, position, velocity, acceleration, estimates, tracer=None):
        self.float_calls += 1
        self.times.append(time)
        return self.command

    def plan(self, context):
        raise AssertionError("the engine built a context for a float planner")


class TestFaultPlanFloatPath:
    _SENSOR_ONLY = FaultPlan(
        sensor_faults=(SensorFault(StepWindow(5, 30), SensorFaultKind.DROPOUT),)
    )

    def _run(self, scenario, fault_plan, command=-1.0):
        engine = _engine(scenario, max_time=2.0, fault_plan=fault_plan)
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        planner = _FloatOnlyPlanner(command)
        result = engine.run(planner, factory, RngStream(4))
        return planner, result

    def test_sensor_faults_keep_the_float_entry(self, scenario):
        planner, result = self._run(scenario, self._SENSOR_ONLY)
        assert result.sensor_faults_injected > 0
        assert planner.float_calls == result.steps

    @pytest.mark.parametrize(
        "command, limit", [(math.nan, "a_min"), (math.inf, "a_max"), (-1e9, "a_min")]
    )
    def test_sensor_faults_still_sanitise_the_command(self, scenario, command, limit):
        # A fault plan clips the float entry's command as it clips the
        # context path's: a NaN brakes at a_min instead of reaching the
        # dynamics.
        planner, result = self._run(scenario, self._SENSOR_ONLY, command)
        assert planner.float_calls == result.steps
        applied = result.trajectories[0].accelerations()[1:]
        assert set(applied.tolist()) == {getattr(scenario.ego_limits, limit)}

    def test_planner_faults_call_the_float_entry_on_unfaulted_steps(self, scenario):
        plan = FaultPlan(
            planner_faults=(PlannerFault(StepWindow(5, 8), PlannerFaultKind.NAN),)
        )
        planner, result = self._run(scenario, plan)
        dt = scenario.dt_c
        called = [round(time / dt) for time in planner.times]
        assert result.planner_faults_injected == 3
        assert called == [s for s in range(result.steps) if not 5 <= s < 8]
