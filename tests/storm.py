"""The campaign-storm workload as manifest specs.

The engine benchmark's ``campaign-storm`` workload
(``benchmarks/engine/workloads.py``) runs these specs as a journaled
campaign: a shielded constant planner whose embedded planner raises,
returns NaN and lags on schedule, on a channel with burst loss, delay,
jitter and duplication, with an engine fault plan that drops the sensor
readings of steps 20-120 in half the episodes.  Tests build the same
episode with :mod:`repro.campaign.builders`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

from repro.campaign.builders import build_comm, build_config, build_planner
from repro.planners.base import Planner
from repro.scenarios.base import Scenario
from repro.sim.engine import SimulationEngine

__all__ = ["COMM", "CONFIG", "PLANNER", "ROUND_SIZE", "build"]

PLANNER = {
    "kind": "compound",
    "embedded": {
        "kind": "constant",
        "acceleration": 2.0,
        "faults": [
            {"window": [20, 35], "kind": "exception"},
            {"window": [60, 75], "kind": "nan"},
            {"window": [90, 100], "kind": "latency"},
        ],
    },
}

COMM = {
    "dt_m": 0.1,
    "dt_s": 0.1,
    "sensor_noise": 1.0,
    "faults": [
        {"kind": "gilbert_elliott_loss", "p_enter_burst": 0.1, "p_exit_burst": 0.3},
        {"kind": "fixed_delay", "delay": 0.2},
        {"kind": "uniform_jitter", "low": 0.0, "high": 0.3},
        {"kind": "duplication", "probability": 0.2, "lag": 0.1},
    ],
}

CONFIG = {
    "max_time": 10.0,
    "fault_plan": {
        "sensor_faults": [
            {"window": [20, 120], "kind": "dropout", "probability": 0.5}
        ]
    },
}

#: Episodes per benchmark round: batch seed ``s`` runs episodes
#: ``RngStream(s).spawn(ROUND_SIZE)``.
ROUND_SIZE = 8


def build(
    scenario: Scenario, config: dict = CONFIG, record: bool = False
) -> Tuple[SimulationEngine, Planner]:
    """The engine and planner of the workload on ``scenario``."""
    sim_config = replace(build_config(config), record_trajectories=record)
    engine = SimulationEngine(scenario, build_comm(COMM), sim_config)
    return engine, build_planner(PLANNER, scenario)
