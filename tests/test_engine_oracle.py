"""Differential test: the lean engine loop against its oracle.

``SimulationEngine.run`` builds only the objects a public boundary
needs: stamped states on steps that sense, send or record, the ego's
recorded state only when trajectories are kept, per-episode lists for
the commands, inline clock arithmetic and one ``last_decision`` probe per
episode.  ``tests/engine_oracle.py`` keeps the loop it replaced.  The
two must produce the same ``result_to_dict`` -- trajectories included
-- episode by episode, exactly, over:

* the four scenarios (left turn with the basic and the ultimate
  compound planner, multi-oncoming, signalized, car following) under
  the paper's three communication settings and the comm-storm fault
  stack;
* an engine fault plan (sensor dropout plus planner exception, NaN and
  latency faults);
* traced runs, whose trace events (under a counting clock) must match
  too.

The record on/off parity test checks that switching trajectories off
changes nothing in ``result_to_dict`` but the trajectories.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest

from repro.campaign.builders import build_config
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.core.verification import adversarial_suite
from repro.experiments.config import SETTING_NAMES, ExperimentConfig
from repro.experiments.harness import build_trio
from repro.obs.observer import Observer
from repro.obs.trace import Tracer
from repro.scenarios.car_following import CarFollowingScenario
from repro.scenarios.left_turn.multi import MultiOncomingLeftTurnScenario
from repro.scenarios.signalized import SignalizedCrossingScenario
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.sim.serialization import result_to_dict
from repro.utils.rng import spawn_streams
from tests import engine_oracle
from tests.test_kalman_oracle import _comm

PAPER = ExperimentConfig()
SETTINGS = [*SETTING_NAMES, "comm_storm"]
N_EPISODES = 3
SEED = 31
MAX_TIME = 12.0

#: Sensor dropout plus every planner fault kind, early enough to fire.
FAULT_PLAN = {
    "sensor_faults": [{"window": [10, 60], "kind": "dropout", "probability": 0.5}],
    "planner_faults": [
        {"window": [15, 20], "kind": "exception"},
        {"window": [30, 33], "kind": "nan"},
        {"window": [45, 50], "kind": "latency"},
    ],
}


def _config(faults: bool = False, record: bool = True) -> SimulationConfig:
    """The test horizon, with or without the fault plan and trajectories."""
    spec = {"max_time": MAX_TIME}
    if faults:
        spec["fault_plan"] = FAULT_PLAN
    return replace(build_config(spec), record_trajectories=record)


def _compound(scenario, embedded) -> CompoundPlanner:
    return CompoundPlanner(
        nn_planner=embedded,
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.vehicle_limits(0),
    )


@pytest.fixture(scope="module")
def cases(tiny_conservative_spec, scenario) -> Dict[str, Tuple]:
    """(scenario, planner, estimator kind) per configuration."""
    trio = build_trio(tiny_conservative_spec, scenario, PAPER)
    multi = MultiOncomingLeftTurnScenario()
    signalized = SignalizedCrossingScenario().with_offset(3.0)
    following = CarFollowingScenario()
    bang = adversarial_suite(following.vehicle_limits(0))[-1]
    assert bang.name == "random_bang"
    return {
        "left turn basic": (scenario, trio.basic, EstimatorKind.RAW),
        "left turn ultimate": (scenario, trio.ultimate, EstimatorKind.FILTERED),
        "multi-oncoming": (
            multi, _compound(multi, multi.gap_expert()), EstimatorKind.FILTERED
        ),
        "signalized": (
            signalized,
            _compound(signalized, signalized.green_wave_planner()),
            EstimatorKind.RAW,
        ),
        "car following": (following, _compound(following, bang), EstimatorKind.FILTERED),
    }


def _episodes(run, case, comm, config, traced=False) -> List[dict]:
    """``result_to_dict`` of every episode, plus trace events if traced."""
    scenario, planner, kind = case
    engine = SimulationEngine(scenario, comm, config)
    factory = make_estimator_factory(kind, engine)
    records = []
    for stream in spawn_streams(SEED, N_EPISODES):
        observer = None
        if traced:
            observer = Observer(tracer=Tracer(clock=itertools.count().__next__))
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


CONFIGS = ["left turn basic", "left turn ultimate", "multi-oncoming",
           "signalized", "car following"]


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

    @pytest.mark.parametrize("name", CONFIGS)
    def test_traced_identical(self, name, cases):
        config = _config(faults=True)
        comm = _comm("messages_delayed")
        fast = _episodes(SimulationEngine.run, cases[name], comm, config, True)
        slow = _episodes(engine_oracle.run, cases[name], comm, config, True)
        assert all(record["events"] and record["trajectories"] for record in fast)
        _assert_same(fast, slow, f"{name} traced")


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
