"""Declarative fault plans and their compiled per-run injectors.

A plan is data: tuples of :class:`SensorFault` and :class:`PlannerFault`
records, each scoped to a :class:`StepWindow` of control steps and
optionally activated per episode with a probability.  Compiling the plan
with a seeded stream resolves those probabilities into this episode's
active fault set, so a batch seed reproduces the exact same fault
pattern run after run — faults are part of the workload, like message
drops and sensor noise.

Semantics of each fault kind
----------------------------

Sensor faults (applied to each reading the engine takes):

* ``DROPOUT`` — the reading is discarded; the estimator simply does not
  hear from the sensor this step.  The sensor still *draws* its noise,
  so dropout does not shift the random sequence of later readings.
* ``FREEZE`` — the estimator receives the last pre-fault reading's
  values re-stamped at the current time (a frozen sensor head).
* ``STUCK`` — the estimator receives configured constant values.

``FREEZE`` and ``STUCK`` violate the paper's sensing contract (the
measurement is no longer within the noise bound of the truth), so the
safety theorem does not cover them; ``DROPOUT`` only removes
information and is covered.  See ``docs/ROBUSTNESS.md``.

Planner faults (applied to the engine's planner invocation):

* ``EXCEPTION`` — the planner call is not made; the engine's watchdog
  fallback commands full braking for the step.
* ``NAN`` — the planner's command is replaced by NaN (the engine
  sanitises commands to full braking when a fault plan is active).
* ``LATENCY`` — the previous step's command is repeated (a planner
  overrunning its compute budget); braking before any command exists.

Engine-level planner faults bypass the runtime monitor for the faulted
steps, so the theorem does not cover them either; to model a faulty
*embedded* planner inside the shield — the configuration the theorem
does cover — wrap it with
:class:`~repro.faults.planner_wrapper.FaultyPlanner` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple

from repro.dynamics.vehicle import VehicleLimits
from repro.errors import FaultInjectionError
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import FloatEntry, clipped
from repro.sensing.sensor import SensorReading
from repro.utils.rng import RngStream
from repro.utils.validation import check_finite, check_probability

__all__ = [
    "StepWindow",
    "SensorFaultKind",
    "SensorFault",
    "PlannerFaultKind",
    "PlannerFault",
    "FaultPlan",
    "FaultInjector",
]


@dataclass(frozen=True)
class StepWindow:
    """Half-open control-step window ``[start, stop)`` a fault is active in.

    Units: start [1], stop [1]
    """

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise FaultInjectionError(
                f"StepWindow.start must be >= 0, got {self.start}"
            )
        if self.stop <= self.start:
            raise FaultInjectionError(
                f"StepWindow must be non-empty: [{self.start}, {self.stop})"
            )

    def contains(self, step: int) -> bool:
        """Whether control step ``step`` falls inside the window."""
        return self.start <= step < self.stop


class SensorFaultKind(str, Enum):
    """How a faulted sensor misbehaves."""

    #: Reading discarded (estimator hears nothing this step).
    DROPOUT = "dropout"
    #: Last pre-fault reading repeated, re-stamped at the current time.
    FREEZE = "freeze"
    #: Configured constant values reported.
    STUCK = "stuck"


@dataclass(frozen=True)
class SensorFault:
    """One scheduled sensor fault.

    Attributes
    ----------
    window:
        Control-step window the fault is active in.
    kind:
        Fault behaviour (see :class:`SensorFaultKind`).
    target:
        Observed-vehicle index the fault applies to; ``None`` = all.
    probability:
        Per-episode activation probability (resolved at compile time
        from the seeded stream; 1.0 = always active).
    stuck_position, stuck_velocity, stuck_acceleration:
        The constant reading reported under ``STUCK`` (ignored
        otherwise).

    Units: probability [1], stuck_position [m], stuck_velocity [m/s],
    Units: stuck_acceleration [m/s^2]
    """

    window: StepWindow
    kind: SensorFaultKind
    target: Optional[int] = None
    probability: float = 1.0
    stuck_position: float = 0.0
    stuck_velocity: float = 0.0
    stuck_acceleration: float = 0.0

    def __post_init__(self) -> None:
        check_probability(self.probability, "probability")
        if self.target is not None and (
            isinstance(self.target, bool) or not isinstance(self.target, int)
        ):
            raise FaultInjectionError(
                "SensorFault.target must be a vehicle index, got "
                f"{self.target!r}"
            )
        if self.kind is SensorFaultKind.STUCK:
            check_finite(self.stuck_position, "stuck_position")
            check_finite(self.stuck_velocity, "stuck_velocity")
            check_finite(self.stuck_acceleration, "stuck_acceleration")

    def applies_to(self, step: int, target: int) -> bool:
        """Whether this fault hits vehicle ``target`` at ``step``."""
        if not self.window.contains(step):
            return False
        return self.target is None or self.target == target


class PlannerFaultKind(str, Enum):
    """How a faulted planner misbehaves."""

    #: The planner call fails; the watchdog commands full braking.
    EXCEPTION = "exception"
    #: The planner returns NaN.
    NAN = "nan"
    #: The previous command is repeated (compute overrun).
    LATENCY = "latency"


@dataclass(frozen=True)
class PlannerFault:
    """One scheduled planner fault.

    Units: probability [1]
    """

    window: StepWindow
    kind: PlannerFaultKind
    probability: float = 1.0

    def __post_init__(self) -> None:
        check_probability(self.probability, "probability")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, compile-to-seeded-injector fault schedule."""

    sensor_faults: Tuple[SensorFault, ...] = ()
    planner_faults: Tuple[PlannerFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensor_faults", tuple(self.sensor_faults))
        object.__setattr__(self, "planner_faults", tuple(self.planner_faults))

    @property
    def is_empty(self) -> bool:
        """Whether the plan schedules nothing."""
        return not self.sensor_faults and not self.planner_faults

    def compile(self, rng: RngStream) -> "FaultInjector":
        """Resolve per-episode activations and build this run's injector.

        One Bernoulli is drawn per scheduled fault, in declaration
        order, so the activation pattern is a pure function of the
        episode's seed stream.
        """
        active_sensor = tuple(
            f for f in self.sensor_faults if rng.bernoulli(f.probability)
        )
        active_planner = tuple(
            f for f in self.planner_faults if rng.bernoulli(f.probability)
        )
        return FaultInjector(active_sensor, active_planner)

    def describe(self) -> str:
        """Human-readable one-line description (used in reports)."""
        if self.is_empty:
            return "no faults"
        parts = [
            f"sensor {f.kind.value}@[{f.window.start},{f.window.stop})"
            for f in self.sensor_faults
        ] + [
            f"planner {f.kind.value}@[{f.window.start},{f.window.stop})"
            for f in self.planner_faults
        ]
        return " + ".join(parts)


@dataclass
class FaultInjector:
    """A compiled fault plan: this episode's active faults plus counters.

    Created by :meth:`FaultPlan.compile`; consumed by
    :meth:`repro.sim.engine.SimulationEngine.run`.
    """

    sensor_faults: Tuple[SensorFault, ...] = ()
    planner_faults: Tuple[PlannerFault, ...] = ()
    #: Readings suppressed or corrupted by sensor faults.
    sensor_faults_injected: int = 0
    #: Steps whose command was altered by planner faults.
    planner_faults_injected: int = 0
    _last_clean: Dict[int, SensorReading] = field(default_factory=dict)
    _last_command: Optional[float] = None
    _planner_step: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    # Sensor hook
    # ------------------------------------------------------------------
    def apply_sensor(
        self, step: int, target: int, reading: SensorReading
    ) -> Optional[SensorReading]:
        """Filter one sensor reading through the active sensor faults.

        Units: step [1], target [1]

        Returns the (possibly replaced) reading, or ``None`` when the
        reading is dropped.  The first matching fault wins.
        """
        for fault in self.sensor_faults:
            if not fault.applies_to(step, target):
                continue
            self.sensor_faults_injected += 1
            if fault.kind is SensorFaultKind.DROPOUT:
                return None
            if fault.kind is SensorFaultKind.FREEZE:
                frozen = self._last_clean.get(target)
                if frozen is None:
                    # Nothing to freeze on yet: behave like dropout.
                    return None
                return frozen._replace(time=reading.time)
            return SensorReading(
                target=target,
                time=reading.time,
                position=fault.stuck_position,
                velocity=fault.stuck_velocity,
                acceleration=fault.stuck_acceleration,
            )
        self._last_clean[target] = reading
        return reading

    # ------------------------------------------------------------------
    # Planner hook
    # ------------------------------------------------------------------
    def planner_entry(self, plan: FloatEntry, limits: VehicleLimits) -> FloatEntry:
        """``plan`` under this episode's planner faults, its command clipped.

        The returned entry has ``plan``'s signature.  The engine calls it
        once per planned step from step 0, so its call count is the step
        the faults are scheduled on.  On a faulted step ``plan`` is not
        called.  Every command is sanitised with
        :func:`~repro.planners.base.clipped`, so an injected NaN (or any
        out-of-range command) brakes instead of corrupting the dynamics.
        """

        def faulted(
            time: float,
            position: float,
            velocity: float,
            acceleration: float,
            estimates: Mapping[int, FusedEstimate],
            tracer=None,
        ) -> float:
            """One (possibly faulted) planner invocation."""
            step = self._planner_step
            self._planner_step = step + 1
            fault = self._active_planner_fault(step)
            if fault is None:
                command = plan(time, position, velocity, acceleration, estimates, tracer)
                self._last_command = command
            else:
                self.planner_faults_injected += 1
                if fault.kind is PlannerFaultKind.NAN:
                    command = math.nan
                elif (
                    fault.kind is PlannerFaultKind.LATENCY
                    and self._last_command is not None
                ):
                    command = self._last_command
                else:
                    # EXCEPTION (the planner process is down), or LATENCY
                    # before any command exists: the watchdog brakes.
                    command = limits.a_min
            return clipped(command, limits)

        return faulted

    def _active_planner_fault(self, step: int) -> Optional[PlannerFault]:
        for fault in self.planner_faults:
            if fault.window.contains(step):
                return fault
        return None
