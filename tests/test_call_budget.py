"""Python and C calls per planned step stay within a budget.

The control step's cost is mostly calls and the objects they build, not
arithmetic, so a count of calls per planned step catches a change that
puts objects back into the step without timing anything.  Calls are
counted with ``sys.setprofile`` the way cProfile counts them: one per
``call`` event (a Python function) and one per ``c_call`` event (a
builtin).  One seeded episode each of the ultimate configuration (the
information filter on the paper's messages-delayed channel) and of the
basic one (raw estimates on the same channel), with the cheaply trained
planners of ``tests/conftest.py``, and of the campaign-storm workload
(``tests/storm.py``: a compound over a ``FaultyPlanner`` around a
constant planner, filtered estimates on the comm-storm channel, an
engine fault plan with sensor dropout) must stay within
:data:`BUDGETS`: the counts this code makes plus 5 %.

A change that lowers a count should lower its budget with it.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import PlannerTrio, build_trio
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.utils.rng import RngStream
from tests import storm

PAPER = ExperimentConfig()
SEED = 17

#: Calls per planned step of each configuration's episode (110.1, 80.2
#: and 101.6 as measured on CPython 3.11 with numpy 2.4), plus 5 %.
BUDGETS = {"ultimate": 115.6, "basic": 84.2, "storm": 106.7}

#: The campaign-storm workload with its sensor dropout always active.
STORM_CONFIG = {
    "max_time": 10.0,
    "fault_plan": {"sensor_faults": [{"window": [20, 120], "kind": "dropout"}]},
}


def _calls_per_step(planner, kind, engine=None) -> float:
    if engine is None:
        engine = SimulationEngine(
            PAPER.scenario(),
            PAPER.comm_setting("messages_delayed"),
            SimulationConfig(max_time=PAPER.max_time, record_trajectories=False),
        )
    factory = make_estimator_factory(kind, engine)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        result = engine.run(planner, factory, RngStream(SEED))
    finally:
        sys.setprofile(None)
    assert result.steps > 50
    return calls / result.steps


@pytest.fixture(scope="module")
def trios(tiny_aggressive_spec, tiny_conservative_spec, scenario):
    return {
        "ultimate": build_trio(tiny_aggressive_spec, scenario, PAPER).ultimate,
        "basic": build_trio(tiny_conservative_spec, scenario, PAPER).basic,
    }


@pytest.mark.parametrize("name", ["ultimate", "basic"])
def test_calls_per_planned_step_within_budget(name, trios):
    measured = _calls_per_step(trios[name], PlannerTrio.KINDS[name])
    assert measured <= BUDGETS[name], (
        f"{name}: {measured:.1f} calls per planned step, budget {BUDGETS[name]}"
    )


def test_storm_calls_per_planned_step_within_budget(scenario):
    engine, planner = storm.build(scenario, STORM_CONFIG)
    measured = _calls_per_step(planner, EstimatorKind.FILTERED, engine)
    assert measured <= BUDGETS["storm"], (
        f"storm: {measured:.1f} calls per planned step, budget {BUDGETS['storm']}"
    )
