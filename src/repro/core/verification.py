"""Offline safety certification of a scenario's monitor + emergency pair.

The framework's guarantee holds for *any* embedded planner only if the
scenario's safety model and emergency planner satisfy their contracts
(sound over-approximation, Eq. (4)).  For the scenarios shipped here
those are covered by the test suite; a user bringing a *new* scenario
needs the same evidence.  :func:`certify` packages it: it wraps a suite
of adversarial embedded planners — the ones most likely to break a
monitor — in the compound planner and sweeps them over seeded episodes
under the given communication setups, reporting every violation.

A clean certificate is strong evidence (not proof) that the scenario's
safety model and emergency planner uphold the framework's theorem; a
violation pinpoints a broken contract with the seed, planner, and comm
setup to reproduce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.dynamics.vehicle import VehicleLimits
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import Planner
from repro.scenarios.base import Scenario
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import BatchRunner, EstimatorKind

__all__ = [
    "AdversarialPlanner",
    "adversarial_suite",
    "Violation",
    "CertificationReport",
    "certify",
]


class AdversarialPlanner:
    """Named adversarial embedded planners used by the certifier.

    ``fn`` is the adversarial law: ``fn(time, position, velocity,
    acceleration, estimates) -> command`` on the ego's floats.
    """

    def __init__(self, name: str, fn) -> None:
        self.name = name
        self._fn = fn

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """Delegate to the wrapped adversarial law.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]
        """
        return self._fn(time, position, velocity, acceleration, estimates)


def adversarial_suite(limits: VehicleLimits) -> List[AdversarialPlanner]:
    """The standard battery of monitor-breaking embedded planners.

    * ``full_throttle`` — maximum pressure on the boundary set;
    * ``full_brake`` — maximum pressure on liveness/committed handling;
    * ``oscillate`` — chattering between the extremes, stressing the
      one-step margins;
    * ``nan`` — numerically broken output, stressing sanitisation;
    * ``random_bang`` — state-hash-driven bang-bang, stressing
      everything at once (deterministic, so certificates reproduce).
    """
    flip = {"value": False}

    def oscillate(*_) -> float:
        flip["value"] = not flip["value"]
        return limits.a_max if flip["value"] else limits.a_min

    def random_bang(time, position, *_) -> float:
        h = hash((round(time * 20), round(position, 1)))
        return limits.a_max if h % 3 else limits.a_min

    return [
        AdversarialPlanner("full_throttle", lambda *_: limits.a_max),
        AdversarialPlanner("full_brake", lambda *_: limits.a_min),
        AdversarialPlanner("oscillate", oscillate),
        AdversarialPlanner("nan", lambda *_: math.nan),
        AdversarialPlanner("random_bang", random_bang),
    ]


@dataclass(frozen=True)
class Violation:
    """One certification failure, with everything needed to reproduce it."""

    planner_name: str
    comm_index: int
    estimator_kind: EstimatorKind
    seed_index: int
    collision_time: float


@dataclass
class CertificationReport:
    """Outcome of one :func:`certify` sweep."""

    scenario_name: str
    episodes_run: int
    violations: List[Violation] = field(default_factory=list)
    #: Episodes per (planner, comm, estimator) cell.
    episodes_per_cell: int = 0

    @property
    def certified(self) -> bool:
        """Whether no violation was observed."""
        return not self.violations

    def render(self) -> str:
        """Human-readable certificate."""
        lines = [
            f"safety certification: {self.scenario_name}",
            f"episodes: {self.episodes_run} "
            f"({self.episodes_per_cell} per cell)",
        ]
        if self.certified:
            lines.append("result: CERTIFIED — no violation observed")
        else:
            lines.append(f"result: FAILED — {len(self.violations)} violations")
            for v in self.violations[:10]:
                lines.append(
                    f"  planner={v.planner_name} comm[{v.comm_index}] "
                    f"{v.estimator_kind.value} seed_index={v.seed_index} "
                    f"t={v.collision_time:.2f}s"
                )
        return "\n".join(lines)


def certify(
    scenario: Scenario,
    comm_setups: Sequence[CommSetup],
    n_runs: int = 20,
    seed: int = 0,
    max_time: float = 30.0,
    planners: Optional[Sequence[Planner]] = None,
) -> CertificationReport:
    """Sweep adversarial embedded planners over a scenario.

    Parameters
    ----------
    scenario:
        The scenario whose safety model + emergency planner are under
        test.
    comm_setups:
        Communication environments to certify under (include the worst
        you intend to deploy in).
    n_runs:
        Episodes per (planner, comm setup, estimator kind) cell.
    seed:
        Base seed; identical across cells for pinpointable repros.
    planners:
        Override the adversarial suite (each must expose ``plan_floats``
        and a ``name`` attribute).
    """
    suite: Sequence = (
        planners
        if planners is not None
        else adversarial_suite(scenario.vehicle_limits(0))
    )
    report = CertificationReport(
        scenario_name=type(scenario).__name__,
        episodes_run=0,
        episodes_per_cell=n_runs,
    )
    for comm_index, comm in enumerate(comm_setups):
        engine = SimulationEngine(
            scenario,
            comm,
            SimulationConfig(max_time=max_time, record_trajectories=False),
        )
        for kind in (EstimatorKind.RAW, EstimatorKind.FILTERED):
            runner = BatchRunner(engine, kind)
            for adversary in suite:
                compound = CompoundPlanner(
                    nn_planner=adversary,
                    emergency_planner=scenario.emergency_planner(),
                    monitor=RuntimeMonitor(scenario.safety_model()),
                    limits=scenario.vehicle_limits(0),
                )
                results = runner.run_batch(compound, n_runs, seed=seed)
                report.episodes_run += n_runs
                for index, result in enumerate(results):
                    if result.outcome is Outcome.COLLISION:
                        report.violations.append(
                            Violation(
                                planner_name=getattr(
                                    adversary, "name", "custom"
                                ),
                                comm_index=comm_index,
                                estimator_kind=kind,
                                seed_index=index,
                                collision_time=float(
                                    result.collision_time or -1.0
                                ),
                            )
                        )
    return report
