"""The golden behaviour corpus: what episodes do, pinned across revisions.

The oracles (``make oracles``) check each fast path against its slow
twin within one revision.  This corpus pins the behaviour itself: the
engine-oracle grid -- the left turn with the basic and the ultimate
compound planner, multi-oncoming, signalized and car following -- under
the paper's three communication settings, the comm-storm fault stack,
and that stack with an engine fault plan, for :data:`N_SEEDS` seeds
each.  Every cell records the outcome, reaching and collision time,
planned and emergency steps, channel statistics and a SHA-256 of the
ego command sequence.

``tests/test_golden.py`` asserts that the checked-in
``tests/data/golden_episodes.json`` equals a fresh run exactly.  A change
that alters behaviour on purpose regenerates the file with::

    make golden-update

which prints a per-field diff of every cell that moved.

The NN cells depend on the BLAS kernel numpy picks for the tiny
network's matrix products; a machine whose kernel rounds differently
can disagree on them.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

from repro.campaign.builders import build_config
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.core.verification import adversarial_suite
from repro.experiments.config import SETTING_NAMES, ExperimentConfig
from repro.experiments.harness import build_trio
from repro.scenarios.car_following import CarFollowingScenario
from repro.scenarios.left_turn.multi import MultiOncomingLeftTurnScenario
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.scenarios.signalized import SignalizedCrossingScenario
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.results import SimulationResult
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.utils.rng import RngStream
from tests.test_kalman_oracle import _comm

__all__ = [
    "CONFIGS",
    "CORPUS_PATH",
    "FAULT_PLAN",
    "GOLDEN_SETTINGS",
    "build_corpus",
    "corpus_diff",
    "engine_cases",
    "sim_config",
]

CORPUS_PATH = Path(__file__).parent / "data" / "golden_episodes.json"

PAPER = ExperimentConfig()

#: The engine-oracle grid's configurations.
CONFIGS = ["left turn basic", "left turn ultimate", "multi-oncoming",
           "signalized", "car following"]

#: The comm-storm stack run again with :data:`FAULT_PLAN` active.
STORM_WITH_FAULTS = "comm_storm+fault_plan"

GOLDEN_SETTINGS = [*SETTING_NAMES, "comm_storm", STORM_WITH_FAULTS]

N_SEEDS = 8

#: Episode horizon of the corpus and the engine oracle.
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


def sim_config(faults: bool = False, record: bool = True) -> SimulationConfig:
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


def engine_cases(spec, scenario: LeftTurnScenario) -> Dict[str, Tuple]:
    """(scenario, planner, estimator kind) per configuration of the grid."""
    trio = build_trio(spec, scenario, PAPER)
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


def command_digest(result: SimulationResult) -> str:
    """SHA-256 of the ego's recorded command sequence, bit for bit."""
    commands = [point.acceleration for point in result.trajectories[0]]
    return hashlib.sha256(struct.pack(f"<{len(commands)}d", *commands)).hexdigest()


def cell_record(result: SimulationResult) -> dict:
    """The pinned fields of one episode."""
    return {
        "outcome": result.outcome.value,
        "reaching_time": result.reaching_time,
        "collision_time": result.collision_time,
        "steps": result.steps,
        "emergency_steps": result.emergency_steps,
        "channel_stats": {
            str(index): [
                stats.sent,
                stats.dropped,
                stats.delivered,
                stats.duplicated,
                stats.out_of_order,
                stats.total_delay,
            ]
            for index, stats in sorted(result.channel_stats.items())
        },
        "commands_sha256": command_digest(result),
    }


def build_corpus(cases: Dict[str, Tuple]) -> Dict[str, dict]:
    """Run the whole grid; cells keyed ``config/setting/seed``."""
    corpus: Dict[str, dict] = {}
    for name in CONFIGS:
        scenario, planner, kind = cases[name]
        for setting in GOLDEN_SETTINGS:
            faults = setting == STORM_WITH_FAULTS
            comm = _comm("comm_storm" if faults else setting)
            engine = SimulationEngine(scenario, comm, sim_config(faults))
            factory = make_estimator_factory(kind, engine)
            for seed in range(N_SEEDS):
                result = engine.run(planner, factory, RngStream(seed))
                corpus[f"{name}/{setting}/{seed}"] = cell_record(result)
    return corpus


def corpus_diff(old: Dict[str, dict], new: Dict[str, dict]) -> List[str]:
    """One line per cell and field that differs between two corpora."""
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            lines.append(f"{key}: {'added' if key not in old else 'removed'}")
            continue
        for field in sorted(set(old[key]) | set(new[key])):
            before = old[key].get(field)
            after = new[key].get(field)
            if before != after:
                lines.append(f"{key} {field}: {before!r} -> {after!r}")
    return lines


def load_corpus() -> Dict[str, dict]:
    """The checked-in corpus."""
    return json.loads(CORPUS_PATH.read_text())


def write_corpus(corpus: Dict[str, dict]) -> None:
    """Write ``corpus`` to :data:`CORPUS_PATH`: one cell per line, sorted."""
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{json.dumps(key)}: {json.dumps(corpus[key], sort_keys=True)}"
        for key in sorted(corpus)
    ]
    CORPUS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> int:
    """``make golden-update``: rerun the grid, print the diff, rewrite the file."""
    from tests.conftest import train_tiny_spec

    scenario = LeftTurnScenario()
    corpus = build_corpus(
        engine_cases(train_tiny_spec("conservative", scenario), scenario)
    )
    old = load_corpus() if CORPUS_PATH.exists() else {}
    lines = corpus_diff(old, corpus)
    for line in lines:
        print(line)
    write_corpus(corpus)
    print(f"{len(corpus)} cells, {len(lines)} field changes -> {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
