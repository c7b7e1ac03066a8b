"""Engine-level fault injection: declarative, seeded fault plans.

Channel faults (:mod:`repro.comm.faults`) disturb the *communication*
layer; this package disturbs everything else the paper's guarantee must
survive: the onboard sensors (dropout / freeze / stuck-at) and the
planner process itself (exceptions / NaN output / compute latency).

A :class:`FaultPlan` is a declarative schedule — *which* fault, over
*which* step window, with *what* per-episode activation probability —
that :meth:`FaultPlan.compile` turns into a per-run
:class:`FaultInjector` using a child of the run's seed stream, so fault
activations are as reproducible as everything else in a batch.  The
simulation engine wires the injector in behind a no-op default
(``SimulationConfig.fault_plan = None`` leaves every run byte-identical
to the pre-fault engine).

:class:`FaultyPlanner` injects planner faults at the *embedded* level —
inside a compound planner's shield — which is the configuration the
safety theorem covers; see ``docs/ROBUSTNESS.md`` for which guarantees
hold under each fault class.
"""

from repro.faults.plan import (
    FaultInjector,
    FaultPlan,
    PlannerFault,
    PlannerFaultKind,
    SensorFault,
    SensorFaultKind,
    StepWindow,
)
from repro.faults.planner_wrapper import FaultyPlanner
from repro.faults.chaos import WorkerChaosOnce

__all__ = [
    "StepWindow",
    "SensorFaultKind",
    "SensorFault",
    "PlannerFaultKind",
    "PlannerFault",
    "FaultPlan",
    "FaultInjector",
    "FaultyPlanner",
    "WorkerChaosOnce",
]
