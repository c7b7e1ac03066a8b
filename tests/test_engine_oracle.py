"""Differential test: the flat-float engine loop against its oracle.

``SimulationEngine.run`` keeps each episode as floats: positions,
velocities, applied accelerations and commands per vehicle, stepped by
``VehicleModel.advance``, terminal checks through the scenario's float
hooks and the planner called through ``plan_floats``; value objects
are built only for profiles, stamped states and recorded
trajectories.  ``tests/engine_oracle.py`` keeps
the loop it replaced.  The two must produce the same ``result_to_dict``
-- trajectories included -- episode by episode, exactly, over:

* the four scenarios (left turn with the basic and the ultimate
  compound planner, multi-oncoming, signalized, car following) under
  the paper's three communication settings and the comm-storm fault
  stack;
* an engine fault plan (sensor dropout plus planner exception, NaN and
  latency faults), and one with sensor faults only;
* a top-level planner that is not a compound (no monitor of its own)
  and reads a ``PlanningContext`` it builds from its floats, with no
  plan, the sensor-only plan and the planner-fault plan, untraced and
  traced;
* traced runs, whose trace events (under a counting clock) must match
  too.  The flat loop also emits the layer spans of the calls it no
  longer makes through the wrapped public methods
  (:data:`KERNEL_SPANS`); the oracle cannot, so the comparison drops
  those four span names at the source, before they reach the clock, and
  a separate test counts them.

The record on/off parity test checks that switching trajectories off
changes nothing in ``result_to_dict`` but the trajectories.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro.campaign.builders import build_config
from repro.dynamics.state import VehicleState
from repro.experiments.config import SETTING_NAMES
from repro.obs.observer import Observer
from repro.obs.trace import Tracer
from repro.planners.base import PlanningContext
from repro.planners.nn_planner import NNPlanner
from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
from repro.sim.engine import SimulationEngine
from repro.sim.runner import make_estimator_factory
from repro.sim.serialization import result_to_dict
from repro.utils.rng import spawn_streams
from tests import engine_oracle
from tests.golden import CONFIGS, MAX_TIME, engine_cases
from tests.golden import sim_config as _config
from tests.test_kalman_oracle import _comm

SETTINGS = [*SETTING_NAMES, "comm_storm"]
N_EPISODES = 3
SEED = 31

#: Sensor faults only (dropout, freeze, stuck-at): no planner fault.
SENSOR_FAULT_PLAN = {
    "sensor_faults": [
        {"window": [10, 40], "kind": "dropout", "probability": 0.7},
        {"window": [40, 60], "kind": "freeze"},
        {"window": [60, 70], "kind": "stuck", "stuck_position": 0.0},
    ]
}

#: Layer spans the flat loop emits from ``src`` and the oracle does not.
KERNEL_SPANS = frozenset(
    {"shield.monitor", "shield.nn", "shield.emergency", "dynamics.step"}
)


class _WithoutKernelSpans(Observer):
    """An observer that never opens a :data:`KERNEL_SPANS` span.

    Dropping them in ``begin`` keeps them off the counting clock, so
    every other event keeps the timestamps the oracle gives it.
    """

    __slots__ = ()

    def begin(self, name: str, **attrs) -> int:
        if name in KERNEL_SPANS:
            return -1
        return super().begin(name, **attrs)


@pytest.fixture(scope="module")
def cases(tiny_conservative_spec, scenario) -> Dict[str, Tuple]:
    """(scenario, planner, estimator kind) per configuration."""
    return engine_cases(tiny_conservative_spec, scenario)


def _episodes(run, case, comm, config, traced=False, observer_type=Observer):
    """``result_to_dict`` of every episode, plus trace events if traced."""
    scenario, planner, kind = case
    engine = SimulationEngine(scenario, comm, config)
    factory = make_estimator_factory(kind, engine)
    records = []
    for stream in spawn_streams(SEED, N_EPISODES):
        observer = None
        if traced:
            observer = observer_type(tracer=Tracer(clock=itertools.count().__next__))
        record = result_to_dict(
            run(engine, planner, factory, stream, observer=observer),
            include_trajectories=True,
        )
        if traced:
            record["events"] = observer.tracer.events
        records.append(record)
    return records


def _assert_same(fast: List[dict], slow: List[dict], label: str) -> None:
    differing = [
        f"{label} episode {index}: fast={ours} oracle={theirs}"
        for index, (ours, theirs) in enumerate(zip(fast, slow))
        if ours != theirs
    ]
    assert len(fast) == len(slow) and not differing, "\n".join(differing[:3])


class TestEngineOracle:
    @pytest.mark.parametrize("setting", SETTINGS)
    @pytest.mark.parametrize("name", CONFIGS)
    def test_episodes_identical(self, name, setting, cases):
        config = _config()
        comm = _comm(setting)
        fast = _episodes(SimulationEngine.run, cases[name], comm, config)
        slow = _episodes(engine_oracle.run, cases[name], comm, config)
        _assert_same(fast, slow, f"{name} {setting}")

    @pytest.mark.parametrize("name", CONFIGS)
    def test_fault_plan_identical(self, name, cases):
        config = _config(faults=True)
        comm = _comm("comm_storm")
        fast = _episodes(SimulationEngine.run, cases[name], comm, config)
        slow = _episodes(engine_oracle.run, cases[name], comm, config)
        assert any(record["planner_faults_injected"] for record in fast)
        _assert_same(fast, slow, f"{name} fault plan")

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_sensor_fault_plan_identical(self, name, traced, cases):
        # No planner fault: the flat loop keeps the float entry point
        # where the oracle asks the injector with a context.
        config = build_config({"max_time": MAX_TIME, "fault_plan": SENSOR_FAULT_PLAN})
        comm = _comm("comm_storm")
        fast = _episodes(
            SimulationEngine.run, cases[name], comm, config, traced, _WithoutKernelSpans
        )
        slow = _episodes(engine_oracle.run, cases[name], comm, config, traced)
        # The signalized crossing has no other vehicle to sense.
        assert name == "signalized" or any(
            record["sensor_faults_injected"] for record in fast
        )
        _assert_same(fast, slow, f"{name} sensor fault plan")

    @pytest.mark.parametrize("name", CONFIGS)
    def test_traced_identical(self, name, cases):
        config = _config(faults=True)
        comm = _comm("messages_delayed")
        fast = _episodes(
            SimulationEngine.run, cases[name], comm, config, True, _WithoutKernelSpans
        )
        slow = _episodes(engine_oracle.run, cases[name], comm, config, True)
        assert all(record["events"] and record["trajectories"] for record in fast)
        _assert_same(fast, slow, f"{name} traced")

    @pytest.mark.parametrize("faults", [False, True])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_kernel_spans_counted(self, name, faults, cases):
        """One span per call the flat loop makes in place of a public method.

        Under the fault plan the planner is not called on faulted steps.
        """
        _, planner, _ = cases[name]
        comm = _comm("messages_delayed")
        for record in _episodes(
            SimulationEngine.run, cases[name], comm, _config(faults), True
        ):
            names = Counter(
                event["name"] for event in record["events"]
                if event["kind"] == "span"
            )
            steps = record["steps"] - record["planner_faults_injected"]
            emergency = record["emergency_steps"]
            n_vehicles = len(record["trajectories"])
            assert names["dynamics.step"] == n_vehicles * record["steps"]
            assert names["shield.monitor"] == steps
            # The NN and left-turn emergency planners time themselves;
            # the constant planners' plan_floats (car following's full
            # brake) and planners with only ``plan`` do not.
            timed_nn = isinstance(planner.nn_planner, NNPlanner)
            timed_emergency = isinstance(
                planner.emergency_planner, LeftTurnEmergencyPlanner
            )
            assert names["shield.nn"] == (steps - emergency if timed_nn else 0)
            assert names["shield.emergency"] == (
                emergency if timed_emergency else 0
            )


class _ContextOnly:
    """A top-level planner written against a ``PlanningContext``.

    Its ``plan_floats`` builds the context of its floats and asks the
    inner planner on that context's fields; it has no ``monitor``, so
    the engine counts no emergency steps for it.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    def reset(self) -> None:
        self._inner.reset()

    def plan_floats(self, time, position, velocity, acceleration, estimates, tracer=None):
        context = PlanningContext(
            time, VehicleState(position, velocity, acceleration), estimates
        )
        ego = context.ego
        return self._inner.plan_floats(
            context.time, ego.position, ego.velocity, ego.acceleration,
            context.estimates, tracer,
        )


class TestContextOnlyPlanner:
    """A non-compound top-level planner that builds value objects per step."""

    PLANS = {
        "no plan": _config,
        "sensor faults": lambda: build_config(
            {"max_time": MAX_TIME, "fault_plan": SENSOR_FAULT_PLAN}
        ),
        "planner faults": lambda: _config(faults=True),
    }

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("plan", list(PLANS))
    @pytest.mark.parametrize("name", CONFIGS)
    def test_episodes_identical(self, name, plan, traced, cases):
        scenario, planner, kind = cases[name]
        case = (scenario, _ContextOnly(planner), kind)
        config = self.PLANS[plan]()
        comm = _comm("comm_storm")
        fast = _episodes(
            SimulationEngine.run, case, comm, config, traced, _WithoutKernelSpans
        )
        slow = _episodes(engine_oracle.run, case, comm, config, traced)
        if plan == "planner faults":
            assert any(record["planner_faults_injected"] for record in fast)
        _assert_same(fast, slow, f"{name} context-only {plan}")


class TestRecordParity:
    """Recording trajectories changes nothing else in the result."""

    @pytest.mark.parametrize("faults", [False, True])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_record_on_off(self, name, faults, cases):
        comm = _comm("messages_delayed")
        on = _episodes(SimulationEngine.run, cases[name], comm, _config(faults))
        off = _episodes(
            SimulationEngine.run, cases[name], comm, _config(faults, record=False)
        )
        assert all(record.pop("trajectories") for record in on)
        assert all("trajectories" not in record for record in off)
        _assert_same(on, off, f"{name} record on/off")
