"""Tests for the runtime monitor and the compound planner."""

import dataclasses
import math

import pytest

from repro.core.aggressive import AggressiveConfig
from repro.core.compound import CompoundPlanner
from repro.core.monitor import MonitorDecision, RuntimeMonitor
from repro.core.unsafe_set import SafetyModel
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError
from repro.planners.base import PlanningContext
from repro.planners.constant import ConstantPlanner

LIMITS = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)


class ScriptedSafetyModel:
    """Safety model driven by pre-scripted (boundary, unsafe) pairs."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def _current(self):
        item = self.script[min(self.calls, len(self.script) - 1)]
        return item

    def in_boundary_safe_set(self, time, ego, estimates):
        return self._current()[0]

    def in_estimated_unsafe_set(self, time, ego, estimates):
        boundary, unsafe = self.script[
            min(self.calls, len(self.script) - 1)
        ]
        self.calls += 1
        return unsafe


def _context():
    return PlanningContext(
        time=0.0, ego=VehicleState(position=0.0, velocity=5.0)
    )


class RecordingPlanner:
    """A context-only planner: records the ego acceleration it is shown."""

    def __init__(self, commands):
        self.commands = list(commands)
        self.seen = []

    def plan(self, context):
        self.seen.append(context.ego.acceleration)
        return self.commands[len(self.seen) % len(self.commands)]


class RecordingSafetyModel(ScriptedSafetyModel):
    """A scripted model without ``decide``: records the ego accelerations."""

    def __init__(self, script):
        super().__init__(script)
        self.seen = []

    def in_boundary_safe_set(self, time, ego, estimates):
        self.seen.append(ego.acceleration)
        return super().in_boundary_safe_set(time, ego, estimates)

    def in_estimated_unsafe_set(self, time, ego, estimates):
        self.seen.append(ego.acceleration)
        return super().in_estimated_unsafe_set(time, ego, estimates)


class TestAggressiveConfig:
    def test_defaults(self):
        cfg = AggressiveConfig()
        assert cfg.enabled
        assert cfg.a_buf == 0.5

    def test_disabled(self):
        assert not AggressiveConfig.disabled().enabled

    def test_negative_buffers_rejected(self):
        with pytest.raises(ConfigurationError):
            AggressiveConfig(a_buf=-0.1)


class TestRuntimeMonitor:
    def test_selects_nn_when_clear(self):
        monitor = RuntimeMonitor(ScriptedSafetyModel([(False, False)]))
        decision = monitor.evaluate(_context())
        assert not decision.use_emergency

    def test_selects_emergency_in_boundary(self):
        monitor = RuntimeMonitor(ScriptedSafetyModel([(True, False)]))
        assert monitor.evaluate(_context()).use_emergency

    def test_selects_emergency_in_unsafe(self):
        monitor = RuntimeMonitor(ScriptedSafetyModel([(False, True)]))
        decision = monitor.evaluate(_context())
        assert decision.use_emergency
        assert decision.in_unsafe

    def test_counters(self):
        monitor = RuntimeMonitor(
            ScriptedSafetyModel([(False, False), (True, False), (True, True)])
        )
        for _ in range(3):
            monitor.evaluate(_context())
        assert monitor.decisions == 3
        assert monitor.emergency_decisions == 2
        assert monitor.unsafe_decisions == 1
        assert monitor.emergency_frequency == pytest.approx(2 / 3)

    def test_reset(self):
        monitor = RuntimeMonitor(ScriptedSafetyModel([(True, False)]))
        monitor.evaluate(_context())
        monitor.reset()
        assert monitor.decisions == 0
        assert monitor.emergency_frequency == 0.0

    def test_frequency_without_decisions(self):
        monitor = RuntimeMonitor(ScriptedSafetyModel([(False, False)]))
        assert monitor.emergency_frequency == 0.0

    def test_protocol_conformance(self, scenario):
        assert isinstance(scenario.safety_model(), SafetyModel)


class TestCompoundPlanner:
    def _compound(self, script, nn_value=2.0, emergency_value=-6.0):
        return CompoundPlanner(
            nn_planner=ConstantPlanner(nn_value),
            emergency_planner=ConstantPlanner(emergency_value),
            monitor=RuntimeMonitor(ScriptedSafetyModel(script)),
            limits=LIMITS,
        )

    def test_routes_to_nn(self):
        planner = self._compound([(False, False)])
        assert planner.plan(_context()) == 2.0
        assert not planner.last_decision.use_emergency

    def test_routes_to_emergency(self):
        planner = self._compound([(True, False)])
        assert planner.plan(_context()) == -6.0
        assert planner.last_decision.use_emergency

    def test_nan_from_nn_becomes_full_brake(self):
        planner = self._compound([(False, False)], nn_value=math.nan)
        assert planner.plan(_context()) == LIMITS.a_min

    def test_inf_from_nn_clipped(self):
        planner = self._compound([(False, False)], nn_value=math.inf)
        assert planner.plan(_context()) == LIMITS.a_max

    def test_out_of_range_emergency_clipped(self):
        planner = self._compound([(True, False)], emergency_value=-50.0)
        assert planner.plan(_context()) == LIMITS.a_min

    def test_emergency_frequency_passthrough(self):
        planner = self._compound([(True, False), (False, False)])
        planner.plan(_context())
        planner.plan(_context())
        assert planner.emergency_frequency == pytest.approx(0.5)

    def test_reset_clears_state(self):
        planner = self._compound([(True, False)])
        planner.plan(_context())
        planner.reset()
        assert planner.last_decision is None
        assert planner.monitor.decisions == 0

    def test_accessors(self):
        planner = self._compound([(False, False)])
        assert isinstance(planner.nn_planner, ConstantPlanner)
        assert isinstance(planner.emergency_planner, ConstantPlanner)
        assert isinstance(planner.monitor, RuntimeMonitor)


class TestEgoAccelerationPassedOn:
    """Context planners and models behind the float entries see the ego's acceleration."""

    @pytest.mark.parametrize("boundary", [False, True])
    def test_compound_plan(self, boundary):
        nn = RecordingPlanner([1.0])
        emergency = RecordingPlanner([-2.0])
        model = RecordingSafetyModel([(boundary, False)])
        compound = CompoundPlanner(nn, emergency, RuntimeMonitor(model), LIMITS)
        context = PlanningContext(time=0.0, ego=VehicleState(0.0, 5.0, 1.5))
        compound.plan(context)
        assert model.seen == [1.5, 1.5]
        assert (emergency if boundary else nn).seen == [1.5]
        assert (nn if boundary else emergency).seen == []

    def test_monitor_evaluate(self):
        model = RecordingSafetyModel([(False, False)])
        context = PlanningContext(time=0.0, ego=VehicleState(0.0, 5.0, -3.25))
        RuntimeMonitor(model).evaluate(context)
        assert model.seen == [-3.25, -3.25]


class TestPredicateOverrides:
    """A model subclass overriding a predicate, not ``decide``, is heard."""

    @pytest.mark.parametrize(
        "predicate, field",
        [("in_boundary_safe_set", "in_boundary"),
         ("in_estimated_unsafe_set", "in_unsafe")],
    )
    def test_override_reaches_monitor(self, scenario, predicate, field):
        base = scenario.safety_model()
        flagged = type(
            "Flagged", (type(base),), {predicate: lambda self, t, ego, est: True}
        )
        model = flagged(
            **{f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
        )
        # Past the area: neither predicate of the base model holds.
        context = PlanningContext(time=0.0, ego=VehicleState(1000.0, 0.0))
        assert not RuntimeMonitor(base).evaluate(context).use_emergency
        decision = RuntimeMonitor(model).evaluate(context)
        assert decision.use_emergency and getattr(decision, field)
