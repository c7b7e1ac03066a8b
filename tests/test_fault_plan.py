"""Tests for engine-level fault plans and the embedded FaultyPlanner."""

import copy
import math
import pickle  # safelint: disable=SFL009 - the round trip is under test

import pytest

from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.errors import FaultInjectionError, PlannerFaultError
from repro.faults import (
    FaultPlan,
    FaultyPlanner,
    PlannerFault,
    PlannerFaultKind,
    SensorFault,
    SensorFaultKind,
    StepWindow,
)
from repro.dynamics.state import VehicleState
from repro.planners.base import PlanningContext
from repro.planners.constant import ConstantPlanner
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import BatchRunner, EstimatorKind
from repro.utils.rng import RngStream
from repro.comm.faults import no_disturbance


def _comm():
    return CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        faults=no_disturbance(),
        sensor_bounds=NoiseBounds.uniform_all(1.0),
    )


def _run(scenario, fault_plan=None, planner=None, seed=4, max_time=8.0):
    engine = SimulationEngine(
        scenario,
        _comm(),
        SimulationConfig(
            max_time=max_time,
            record_trajectories=False,
            fault_plan=fault_plan,
        ),
    )
    runner = BatchRunner(engine, EstimatorKind.FILTERED)
    return runner.run_one(planner or ConstantPlanner(2.0), seed=seed)


def _fingerprint(result):
    return (
        result.outcome,
        result.reaching_time,
        result.collision_time,
        result.steps,
        result.emergency_steps,
    )


class TestStepWindow:
    def test_half_open_containment(self):
        window = StepWindow(5, 8)
        assert not window.contains(4)
        assert window.contains(5)
        assert window.contains(7)
        assert not window.contains(8)

    def test_empty_window_rejected(self):
        with pytest.raises(FaultInjectionError):
            StepWindow(5, 5)

    def test_negative_start_rejected(self):
        with pytest.raises(FaultInjectionError):
            StepWindow(-1, 3)


class TestFaultPlanCompile:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.describe() == "no faults"

    def test_probability_resolved_from_seed(self):
        fault = SensorFault(
            window=StepWindow(0, 10),
            kind=SensorFaultKind.DROPOUT,
            probability=0.5,
        )
        plan = FaultPlan(sensor_faults=(fault,) * 8)
        active_a = len(plan.compile(RngStream(1)).sensor_faults)
        active_b = len(plan.compile(RngStream(1)).sensor_faults)
        assert active_a == active_b  # same seed, same activation
        counts = {
            len(plan.compile(RngStream(s)).sensor_faults) for s in range(30)
        }
        assert len(counts) > 1  # different seeds differ

    def test_describe_lists_faults(self):
        plan = FaultPlan(
            sensor_faults=(
                SensorFault(StepWindow(0, 5), SensorFaultKind.FREEZE),
            ),
            planner_faults=(
                PlannerFault(StepWindow(3, 4), PlannerFaultKind.NAN),
            ),
        )
        text = plan.describe()
        assert "freeze" in text and "nan" in text


class TestInjectorSensorSemantics:
    def _reading(self, t, p=50.0, v=-12.0, a=0.0):
        return SensorReading(
            target=1, time=t, position=p, velocity=v, acceleration=a
        )

    def _injector(self, *faults):
        return FaultPlan(sensor_faults=tuple(faults)).compile(RngStream(0))

    def test_dropout_suppresses_reading(self):
        injector = self._injector(
            SensorFault(StepWindow(1, 2), SensorFaultKind.DROPOUT)
        )
        assert injector.apply_sensor(0, 1, self._reading(0.0)) is not None
        assert injector.apply_sensor(1, 1, self._reading(0.1)) is None
        assert injector.sensor_faults_injected == 1

    def test_freeze_replays_last_clean_values_restamped(self):
        injector = self._injector(
            SensorFault(StepWindow(1, 3), SensorFaultKind.FREEZE)
        )
        injector.apply_sensor(0, 1, self._reading(0.0, p=50.0))
        frozen = injector.apply_sensor(1, 1, self._reading(0.1, p=48.0))
        # Freezing copies the old reading verbatim; exact equality IS the
        # contract (no arithmetic happens on the values).
        assert frozen.position == 50.0  # safelint: disable=SFL001 - verbatim copy
        assert frozen.time == 0.1  # safelint: disable=SFL001 - verbatim restamp

    def test_freeze_before_any_reading_acts_as_dropout(self):
        injector = self._injector(
            SensorFault(StepWindow(0, 2), SensorFaultKind.FREEZE)
        )
        assert injector.apply_sensor(0, 1, self._reading(0.0)) is None

    def test_stuck_reports_constants(self):
        injector = self._injector(
            SensorFault(
                StepWindow(0, 2),
                SensorFaultKind.STUCK,
                stuck_position=99.0,
                stuck_velocity=-1.0,
            )
        )
        stuck = injector.apply_sensor(0, 1, self._reading(0.0))
        # Stuck-at reports the configured constants verbatim.
        assert stuck.position == 99.0  # safelint: disable=SFL001 - verbatim constant
        assert stuck.velocity == -1.0  # safelint: disable=SFL001 - verbatim constant

    def test_target_scoping(self):
        injector = self._injector(
            SensorFault(StepWindow(0, 5), SensorFaultKind.DROPOUT, target=2)
        )
        assert injector.apply_sensor(0, 1, self._reading(0.0)) is not None
        assert injector.apply_sensor(0, 2, self._reading(0.0)) is None


class TestEngineLevelInjection:
    def test_no_plan_and_empty_plan_are_byte_identical(self, scenario):
        baseline = _run(scenario, fault_plan=None)
        empty = _run(scenario, fault_plan=FaultPlan())
        assert _fingerprint(empty) == _fingerprint(baseline)
        assert empty.sensor_faults_injected == 0
        assert empty.planner_faults_injected == 0

    def test_never_activated_plan_is_byte_identical(self, scenario):
        """A compiled-but-inactive plan must not disturb the run: the
        fault rng is a dedicated child, so children 0-3 are untouched."""
        plan = FaultPlan(
            sensor_faults=(
                SensorFault(
                    StepWindow(0, 5),
                    SensorFaultKind.DROPOUT,
                    probability=0.0,
                ),
            )
        )
        assert _fingerprint(_run(scenario, plan)) == _fingerprint(
            _run(scenario, None)
        )

    def test_sensor_dropout_counted(self, scenario):
        plan = FaultPlan(
            sensor_faults=(
                SensorFault(StepWindow(0, 20), SensorFaultKind.DROPOUT),
            )
        )
        result = _run(scenario, plan)
        assert result.sensor_faults_injected > 0

    def test_planner_nan_fault_brakes(self, scenario):
        """Injected NaN is sanitised to full braking, so the run slows
        down relative to the fault-free constant-throttle run."""
        plan = FaultPlan(
            planner_faults=(
                PlannerFault(StepWindow(0, 40), PlannerFaultKind.NAN),
            )
        )
        faulted = _run(scenario, plan, max_time=12.0)
        clean = _run(scenario, None, max_time=12.0)
        assert faulted.planner_faults_injected > 0
        if (
            faulted.outcome is Outcome.REACHED
            and clean.outcome is Outcome.REACHED
        ):
            assert faulted.reaching_time >= clean.reaching_time

    def test_planner_exception_fault_brakes_like_nan(self, scenario):
        nan_plan = FaultPlan(
            planner_faults=(
                PlannerFault(StepWindow(0, 40), PlannerFaultKind.NAN),
            )
        )
        exc_plan = FaultPlan(
            planner_faults=(
                PlannerFault(StepWindow(0, 40), PlannerFaultKind.EXCEPTION),
            )
        )
        # Both sanitise to the watchdog's full braking.
        assert _fingerprint(_run(scenario, exc_plan)) == _fingerprint(
            _run(scenario, nan_plan)
        )

    def test_planner_latency_repeats_last_command(self, scenario):
        """Latency over a window where a command already exists repeats
        it; with a constant planner that is indistinguishable from the
        clean run."""
        plan = FaultPlan(
            planner_faults=(
                PlannerFault(StepWindow(5, 15), PlannerFaultKind.LATENCY),
            )
        )
        faulted = _run(scenario, plan)
        assert faulted.planner_faults_injected > 0
        assert _fingerprint(faulted) == _fingerprint(_run(scenario, None))


class TestFaultyPlanner:
    def _context(self):
        return PlanningContext(time=0.0, ego=None, estimates={})

    def test_rejects_stochastic_faults(self):
        with pytest.raises(FaultInjectionError):
            FaultyPlanner(
                ConstantPlanner(1.0),
                [
                    PlannerFault(
                        StepWindow(0, 1),
                        PlannerFaultKind.EXCEPTION,
                        probability=0.5,
                    )
                ],
            )

    def test_exception_fault_raises_planner_fault_error(self):
        planner = FaultyPlanner(
            ConstantPlanner(1.0),
            [PlannerFault(StepWindow(1, 2), PlannerFaultKind.EXCEPTION)],
        )
        assert planner.plan(self._context()) == 1.0
        with pytest.raises(PlannerFaultError):
            planner.plan(self._context())
        assert planner.faults_injected == 1

    def test_nan_fault_returns_nan(self):
        planner = FaultyPlanner(
            ConstantPlanner(1.0),
            [PlannerFault(StepWindow(0, 1), PlannerFaultKind.NAN)],
        )
        assert math.isnan(planner.plan(self._context()))

    def test_latency_fault_repeats_command(self):
        planner = FaultyPlanner(
            ConstantPlanner(1.5),
            [PlannerFault(StepWindow(1, 2), PlannerFaultKind.LATENCY)],
        )
        planner.plan(self._context())
        assert planner.plan(self._context()) == 1.5

    def test_latency_before_any_command_raises(self):
        planner = FaultyPlanner(
            ConstantPlanner(1.5),
            [PlannerFault(StepWindow(0, 1), PlannerFaultKind.LATENCY)],
        )
        with pytest.raises(PlannerFaultError):
            planner.plan(self._context())

    def test_reset_restarts_schedule(self):
        planner = FaultyPlanner(
            ConstantPlanner(1.0),
            [PlannerFault(StepWindow(0, 1), PlannerFaultKind.NAN)],
        )
        assert math.isnan(planner.plan(self._context()))
        planner.reset()
        assert math.isnan(planner.plan(self._context()))


class _CountingVelocity:
    """A planner with only ``plan``: the ego's velocity, counting calls."""

    def __init__(self) -> None:
        self.calls = 0

    def plan(self, context: PlanningContext) -> float:
        self.calls += 1
        return context.ego.velocity


def _every_fault(inner) -> FaultyPlanner:
    return FaultyPlanner(
        inner,
        [
            PlannerFault(StepWindow(2, 4), PlannerFaultKind.EXCEPTION),
            PlannerFault(StepWindow(5, 6), PlannerFaultKind.NAN),
            PlannerFault(StepWindow(7, 9), PlannerFaultKind.LATENCY),
        ],
    )


def _outcome(call):
    try:
        return call()
    except PlannerFaultError as exc:
        return str(exc)


class TestFaultyPlannerFloatEntry:
    """``plan_floats`` is ``plan`` on the floats, on one step counter."""

    @pytest.mark.parametrize(
        "inner",
        [ConstantPlanner, lambda acceleration: _CountingVelocity()],
        ids=["constant", "context-only"],
    )
    def test_matches_plan_step_for_step(self, inner):
        by_context = _every_fault(inner(1.5))
        by_floats = _every_fault(inner(1.5))
        for step in range(12):
            context = PlanningContext(
                time=0.1 * step, ego=VehicleState(3.0, 1.5, 0.0), estimates={}
            )
            expected = _outcome(lambda: by_context.plan(context))
            got = _outcome(
                lambda: by_floats.plan_floats(0.1 * step, 3.0, 1.5, 0.0, {})
            )
            if isinstance(expected, float) and math.isnan(expected):
                assert math.isnan(got), step
            else:
                assert got == expected, step
        assert by_floats.faults_injected == by_context.faults_injected == 5

    def test_entries_share_one_step_counter(self):
        planner = _every_fault(ConstantPlanner(1.0))
        context = PlanningContext(time=0.0, ego=VehicleState(0.0, 0.0, 0.0))
        assert planner.plan(context) == 1.0
        assert planner.plan_floats(0.0, 0.0, 0.0, 0.0, {}) == 1.0
        with pytest.raises(PlannerFaultError, match="at step 2"):
            planner.plan(context)
        with pytest.raises(PlannerFaultError, match="at step 3"):
            planner.plan_floats(0.0, 0.0, 0.0, 0.0, {})

    def test_context_only_inner_pickles_and_deep_copies(self):
        planner = _every_fault(_CountingVelocity())
        for twin in (pickle.loads(pickle.dumps(planner)), copy.deepcopy(planner)):
            assert twin.plan_floats(0.0, 0.0, 2.5, 0.0, {}) == 2.5
            assert twin.inner.calls == 1
        assert planner.inner.calls == 0


class TestCompoundContainment:
    """Embedded-planner faults stay inside the shield (the theorem's
    configuration): the compound planner falls back to the emergency
    command and the episode stays safe."""

    def _compound(self, scenario, embedded):
        return CompoundPlanner(
            nn_planner=embedded,
            emergency_planner=scenario.emergency_planner(),
            monitor=RuntimeMonitor(scenario.safety_model()),
            limits=scenario.ego_limits,
        )

    def test_raising_embedded_planner_is_contained(self, scenario):
        embedded = FaultyPlanner(
            ConstantPlanner(2.0),
            [PlannerFault(StepWindow(10, 30), PlannerFaultKind.EXCEPTION)],
        )
        compound = self._compound(scenario, embedded)
        result = _run(scenario, planner=compound, max_time=12.0)
        assert result.outcome is not Outcome.COLLISION
        assert compound.embedded_failures + embedded.faults_injected > 0

    def test_embedded_failures_counted_and_reset(self, scenario):
        embedded = FaultyPlanner(
            ConstantPlanner(2.0),
            [PlannerFault(StepWindow(0, 5), PlannerFaultKind.EXCEPTION)],
        )
        compound = self._compound(scenario, embedded)
        _run(scenario, planner=compound)
        first = compound.embedded_failures
        # The engine resets the planner at the start of each run, so a
        # second run reports per-run (not cumulative) counts.
        _run(scenario, planner=compound)
        assert compound.embedded_failures == first

    @pytest.mark.parametrize(
        "kind, window",
        [
            pytest.param(PlannerFaultKind.NAN, StepWindow(0, 200), id="nan"),
            pytest.param(
                PlannerFaultKind.EXCEPTION, StepWindow(0, 200), id="exception"
            ),
            # Opens after the first command, so every later call repeats
            # that stale command instead of braking for lack of one.
            pytest.param(
                PlannerFaultKind.LATENCY, StepWindow(1, 200), id="latency"
            ),
        ],
    )
    def test_faulty_embedded_planner_safe_across_seeds(
        self, scenario, kind, window
    ):
        for seed in range(5):
            embedded = FaultyPlanner(
                ConstantPlanner(2.0), [PlannerFault(window, kind)]
            )
            result = _run(
                scenario,
                planner=self._compound(scenario, embedded),
                seed=seed,
                max_time=12.0,
            )
            assert result.outcome is not Outcome.COLLISION
            assert embedded.faults_injected > 0
