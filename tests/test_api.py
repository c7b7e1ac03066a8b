"""Tests of the public package surface."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.scenarios.car_following import CarFollowingScenario
from repro.scenarios.left_turn.multi import MultiOncomingLeftTurnScenario
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.scenarios.signalized import SignalizedCrossingScenario


def _modules():
    """``repro`` and every module under it but ``__main__``."""
    return [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_resolvable(self):
        """Every name in every ``repro`` module's ``__all__`` exists."""
        modules = _modules()
        missing = [
            f"{module.__name__}.{name}"
            for module in modules
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
        assert len(modules) > 100
        assert not missing, missing

    def test_key_symbols_present(self):
        for name in (
            "CompoundPlanner",
            "RuntimeMonitor",
            "LeftTurnScenario",
            "SimulationEngine",
            "BatchRunner",
            "InformationFilter",
            "train_left_turn_planner",
            "Interval",
        ):
            assert name in repro.__all__

    def test_quickstart_components_compose(self):
        """The README quickstart's object graph wires together."""
        scenario = repro.LeftTurnScenario()
        monitor = repro.RuntimeMonitor(scenario.safety_model())
        planner = repro.CompoundPlanner(
            nn_planner=repro.Planner and _stub(),
            emergency_planner=scenario.emergency_planner(),
            monitor=monitor,
            limits=scenario.ego_limits,
        )
        engine = repro.SimulationEngine(scenario, repro.CommSetup.perfect())
        runner = repro.BatchRunner(engine, repro.EstimatorKind.FILTERED)
        result = runner.run_one(planner, seed=0)
        assert result.steps > 0


def _stub():
    class _Planner:
        def plan_floats(self, time, position, velocity, acceleration, estimates, tracer=None):
            return 1.0

    return _Planner()


SCENARIOS = [
    LeftTurnScenario,
    MultiOncomingLeftTurnScenario,
    SignalizedCrossingScenario,
    CarFollowingScenario,
]


class TestFloatProtocol:
    """Planners and safety models have one entry each, on floats."""

    def test_exported_planners_have_plan_floats(self):
        # A planner class: named ``*Planner``, or with a ``plan`` or
        # ``plan_floats`` of its own.
        planners = {
            f"{module.__name__}.{name}": obj
            for module in _modules()
            for name in getattr(module, "__all__", ())
            if inspect.isclass(obj := getattr(module, name))
            and (
                name.endswith("Planner")
                or "plan" in vars(obj)
                or "plan_floats" in vars(obj)
            )
        }
        assert len(planners) >= 15
        missing = [name for name, cls in planners.items() if not hasattr(cls, "plan_floats")]
        assert not missing, missing

    @pytest.mark.parametrize("scenario_cls", SCENARIOS, ids=lambda c: c.__name__)
    def test_emergency_planner_has_plan_floats(self, scenario_cls):
        assert callable(scenario_cls().emergency_planner().plan_floats)

    @pytest.mark.parametrize("scenario_cls", SCENARIOS, ids=lambda c: c.__name__)
    def test_safety_model_has_decide(self, scenario_cls):
        assert callable(scenario_cls().safety_model().decide)
