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

A change that lowers a count should lower its budget with it.  A
failure lists the ten functions with the most calls per planned step,
counted by the same hook, so a regression names where it came from.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Tuple

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import PlannerTrio, build_trio
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.utils.rng import RngStream
from tests import storm

PAPER = ExperimentConfig()
SEED = 17

#: Calls per planned step of each configuration's episode (79.8, 58.6
#: and 74.2 as measured on CPython 3.11 with numpy 2.4), plus 5 %.
BUDGETS = {"ultimate": 83.8, "basic": 61.5, "storm": 77.9}

#: The campaign-storm workload with its sensor dropout always active.
STORM_CONFIG = {
    "max_time": 10.0,
    "fault_plan": {"sensor_faults": [{"window": [20, 120], "kind": "dropout"}]},
}


def _function_name(callee) -> str:
    """The name of a counted callee: a code object or a builtin.

    A code object reads ``file-stem.qualname`` (``co_qualname`` exists
    from Python 3.11 on; older code objects give ``co_name``), a builtin
    ``module.qualname``.  Only the failure message reads these names.
    """
    if isinstance(callee, CodeType):
        qualname = getattr(callee, "co_qualname", callee.co_name)
        return f"{Path(callee.co_filename).stem}.{qualname}"
    module = getattr(callee, "__module__", None) or ""
    qualname = getattr(callee, "__qualname__", None) or repr(callee)
    return f"{module}.{qualname}" if module else qualname


def _calls_per_step(planner, kind, engine=None) -> Tuple[float, str]:
    """Calls per planned step of one episode, and its ten busiest functions.

    The second item is one ``calls-per-step  function`` line per function.
    The hook keys each call by its code object (a Python function) or by
    the builtin itself, so the count does not depend on the interpreter
    version; names are built only for the ten busiest.
    """
    if engine is None:
        engine = SimulationEngine(
            PAPER.scenario(),
            PAPER.comm_setting("messages_delayed"),
            SimulationConfig(max_time=PAPER.max_time, record_trajectories=False),
        )
    factory = make_estimator_factory(kind, engine)
    calls: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
        elif event == "c_call":
            calls[arg] += 1

    sys.setprofile(count)
    try:
        result = engine.run(planner, factory, RngStream(SEED))
    finally:
        sys.setprofile(None)
    steps = result.steps
    assert steps > 50
    top = "\n".join(
        f"  {n / steps:6.2f}  {_function_name(callee)}"
        for callee, n in calls.most_common(10)
    )
    return sum(calls.values()) / steps, top


@pytest.fixture(scope="module")
def trios(tiny_aggressive_spec, tiny_conservative_spec, scenario):
    return {
        "ultimate": build_trio(tiny_aggressive_spec, scenario, PAPER).ultimate,
        "basic": build_trio(tiny_conservative_spec, scenario, PAPER).basic,
    }


@pytest.mark.parametrize("name", ["ultimate", "basic"])
def test_calls_per_planned_step_within_budget(name, trios):
    measured, top = _calls_per_step(trios[name], PlannerTrio.KINDS[name])
    assert measured <= BUDGETS[name], (
        f"{name}: {measured:.1f} calls per planned step, budget {BUDGETS[name]};"
        f" the ten busiest functions, calls per planned step:\n{top}"
    )


def test_storm_calls_per_planned_step_within_budget(scenario):
    engine, planner = storm.build(scenario, STORM_CONFIG)
    measured, top = _calls_per_step(planner, EstimatorKind.FILTERED, engine)
    assert measured <= BUDGETS["storm"], (
        f"storm: {measured:.1f} calls per planned step, budget {BUDGETS['storm']};"
        f" the ten busiest functions, calls per planned step:\n{top}"
    )
