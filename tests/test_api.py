"""Tests of the public package surface."""

import importlib
import pkgutil

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_resolvable(self):
        """Every name in every ``repro`` module's ``__all__`` exists."""
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.name.rsplit(".", 1)[-1] != "__main__"
        ]
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
        def plan(self, context):
            return 1.0

    return _Planner()
