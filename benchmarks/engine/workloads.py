"""The four workloads of the engine benchmark.

Each workload has a set-up (NN planner training where it needs one,
engine and planner construction) and a round: one batch of episodes
whose inputs come entirely from the round's batch seed.  A round returns
a check to run after its timing stops, which yields the names of any
correctness failures.

Why these four (see README.md for the layer each one stresses):

* ``ultimate-delayed`` -- the paper's headline configuration; the
  information filter is most of every step, so a filter change must
  win here.
* ``basic-delayed`` -- the same channel without the filter; a filter
  change must read unchanged here, a shield or NN change must win.
* ``table1`` -- the paper's own deliverable, through the experiments
  harness: three planners under all three communication settings.
* ``campaign-storm`` -- the journaling campaign executor on a
  composed fault channel, with irregular gaps, duplicates and
  out-of-order messages; no NN training, so it is the set-up control.
"""

from __future__ import annotations

import shutil
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List

from repro.campaign import CampaignManifest, CampaignRunner, verify_campaign
from repro.experiments import harness
from repro.experiments.config import SETTING_NAMES, ExperimentConfig
from repro.experiments.harness import PlannerTrio, build_trio, trained_spec
from repro.experiments.table1 import run_table1
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.runner import BatchRunner

__all__ = ["WORKLOADS", "Workload", "WARMUP_SEED_OFFSET"]

#: A check run after a round's timing stops; returns failure names.
Check = Callable[[], List[str]]

#: The warm-up round uses batch seed ``seed + WARMUP_SEED_OFFSET``, far
#: from every timed round's ``seed + r``.
WARMUP_SEED_OFFSET = 1_000_000

#: The paper's configuration; every NN workload trains with it.
PAPER = ExperimentConfig()


def _train(style: str):
    """Train a planner of ``style`` from scratch.

    The experiments harness caches trained planners per process; the
    cache is emptied first so that every set-up pays for training, as a
    fresh process does.
    """
    harness._SPEC_CACHE.clear()
    return trained_spec(style, PAPER)


class Workload:
    """A named set-up plus a seeded round of episodes."""

    name = ""
    why = ""
    #: Episodes per round (``n_sims`` per table cell for ``table1``).
    round_size = 0
    #: Round size of ``--smoke``.
    smoke_size = 0

    def setup(self) -> None:
        """Build everything a round needs, training the planner if any."""
        raise NotImplementedError

    def run_round(self, seed: int, size: int, workdir: Path) -> Check:
        """Run one round on batch seed ``seed``; return its check."""
        raise NotImplementedError

    def finish(self, seeds: List[int]) -> List[str]:
        """Checks that need several rounds, over the rounds of ``seeds``."""
        return []


def _no_problems() -> List[str]:
    return []


class DelayedBatch(Workload):
    """One compound planner through ``BatchRunner.run_batch``.

    The channel is the paper's messages-delayed setting:
    ``messages_delayed(0.25, 0.3)`` with sensor uncertainty 1.
    """

    def __init__(self, name, why, style, planner, round_size, smoke_size):
        self.name = name
        self.why = why
        self.round_size = round_size
        self.smoke_size = smoke_size
        self._style = style
        self._planner_name = planner

    def setup(self) -> None:
        spec = _train(self._style)
        scenario = PAPER.scenario()
        trio = build_trio(spec, scenario, PAPER)
        engine = SimulationEngine(
            scenario,
            PAPER.comm_setting("messages_delayed"),
            SimulationConfig(max_time=PAPER.max_time, record_trajectories=False),
        )
        # The estimator the paper pairs with each configuration.
        self._runner = BatchRunner(engine, PlannerTrio.KINDS[self._planner_name])
        self._planner = trio.named()[self._planner_name]

    def run_round(self, seed: int, size: int, workdir: Path) -> Check:
        self._runner.run_batch(self._planner, size, seed=seed)
        return _no_problems


class Table1(Workload):
    """``run_table1`` at a small ``n_sims``: 3 planners x 3 settings.

    The paper's shape -- the ultimate compound planner has the best mean
    eta in every setting -- is checked on rounds pooled together: even 12
    paired episodes per cell occasionally miss it.
    """

    name = "table1"
    why = (
        "the paper's Table I, n_sims=2 per round: experiments-harness "
        "executor, no-disturbance, delayed and lost filter paths"
    )
    round_size = 2
    smoke_size = 2

    def setup(self) -> None:
        _train("conservative")
        #: seed -> setting -> planner -> eta of every episode.
        self._etas: Dict[int, Dict[str, Dict[str, List[float]]]] = {}

    def run_round(self, seed: int, size: int, workdir: Path) -> Check:
        table = run_table1(replace(PAPER, n_sims=size, seed=seed))

        def check() -> List[str]:
            self._etas[seed] = {
                setting: {
                    row.planner_type: [result.eta for result in row.results]
                    for row in rows
                }
                for setting, rows in table.items()
            }
            return []

        return check

    def finish(self, seeds: List[int]) -> List[str]:
        problems = []
        for setting in SETTING_NAMES:
            pooled: Dict[str, List[float]] = {}
            for seed in seeds:
                for planner, etas in self._etas[seed][setting].items():
                    pooled.setdefault(planner, []).extend(etas)
            means = {planner: sum(e) / len(e) for planner, e in pooled.items()}
            if means["ultimate"] < max(means.values()):
                problems.append(
                    f"table1: ultimate does not have the best mean eta "
                    f"under {setting} over seeds {seeds[0]}..{seeds[-1]}"
                )
        return problems


#: The "comm storm" cell of the campaign benchmark: burst loss, fixed
#: delay, jitter and duplication composed on every channel.
STORM_FAULTS = [
    {"kind": "gilbert_elliott_loss", "p_enter_burst": 0.1, "p_exit_burst": 0.3},
    {"kind": "fixed_delay", "delay": 0.2},
    {"kind": "uniform_jitter", "low": 0.0, "high": 0.3},
    {"kind": "duplication", "probability": 0.2, "lag": 0.1},
]

#: Shielded constant planner with exception, NaN and latency faults.
STORM_PLANNER = {
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

#: Ten-second horizon with sensor dropout on steps 20-120.
STORM_CONFIG = {
    "max_time": 10.0,
    "fault_plan": {
        "sensor_faults": [
            {"window": [20, 120], "kind": "dropout", "probability": 0.5}
        ]
    },
}


class CampaignStorm(Workload):
    """A fresh single-worker campaign per round, journaled to disk."""

    name = "campaign-storm"
    why = (
        "journaling campaign executor on a loss+delay+jitter+duplication "
        "channel: deep, irregular filter replays; no training"
    )
    round_size = 8
    smoke_size = 20
    #: Two durable chunks per round, so every round journals and
    #: snapshots more than once.
    chunk_size = 4

    def setup(self) -> None:
        """Nothing to build: the campaign runner builds from its manifest."""

    def run_round(self, seed: int, size: int, workdir: Path) -> Check:
        manifest = CampaignManifest(
            name="comm-storm",
            scenario={"kind": "left_turn"},
            comm={"dt_m": 0.1, "dt_s": 0.1, "sensor_noise": 1.0, "faults": STORM_FAULTS},
            planner=STORM_PLANNER,
            config=STORM_CONFIG,
            n_sims=size,
            seed=seed,
            chunk_size=self.chunk_size,
        )
        directory = workdir / f"campaign-{seed}"
        if directory.exists():
            shutil.rmtree(directory)
        report = CampaignRunner(manifest, directory, n_workers=1).run()

        def check() -> List[str]:
            problems = []
            if report.status != "completed" or report.n_failed:
                problems.append(
                    f"campaign[seed={seed}]: status {report.status}, "
                    f"{report.n_failed} failed"
                )
            outcome = verify_campaign(directory)
            if not outcome["ok"]:
                problems.append(
                    f"campaign[seed={seed}]: verify_campaign: "
                    + "; ".join(outcome["problems"])
                )
            shutil.rmtree(directory)
            return problems

        return check


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        DelayedBatch(
            "ultimate-delayed",
            "headline config: ultimate compound planner, aggressive NN, "
            "information filter, delay 0.25 s + drop 0.3; filter-bound",
            style="aggressive",
            planner="ultimate",
            round_size=8,
            smoke_size=20,
        ),
        DelayedBatch(
            "basic-delayed",
            "basic compound planner, conservative NN, raw estimates on the "
            "same channel: bypasses the filter, shield+NN-bound",
            style="conservative",
            planner="basic",
            round_size=16,
            smoke_size=20,
        ),
        Table1(),
        CampaignStorm(),
    )
}
