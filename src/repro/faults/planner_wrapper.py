"""Planner-level fault injection inside the compound planner's shield.

:class:`FaultyPlanner` decorates any :class:`~repro.planners.base.Planner`
and makes it misbehave on schedule — raise, return NaN, or repeat a
stale command.  Wrapping the *embedded* planner of a
:class:`~repro.core.compound.CompoundPlanner` exercises exactly the
failure mode the paper's theorem covers: whatever the embedded planner
does (including crashing), the monitor + emergency planner contain it.

The wrapper is deliberately deterministic: faults fire purely by step
window, with no internal randomness, so a planner instance shared
across a batch (and pickled to parallel workers) behaves identically no
matter which worker runs which episode or in what order.  Stochastic
*activation* belongs in the engine-level
:class:`~repro.faults.plan.FaultPlan`, which draws from the episode's
seed stream.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError, PlannerFaultError
from repro.faults.plan import PlannerFault, PlannerFaultKind
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import Planner

__all__ = ["FaultyPlanner"]


class FaultyPlanner:
    """Deterministic fault-injecting decorator around any planner.

    Parameters
    ----------
    inner:
        The planner being sabotaged.
    faults:
        Planner faults to apply by step window.  Probabilities other
        than 1.0 are rejected — per-episode randomness must come from
        the engine-level fault plan (seeded), not from planner state.
    """

    def __init__(self, inner: Planner, faults: Sequence[PlannerFault]) -> None:
        for fault in faults:
            if fault.probability != 1.0:  # safelint: disable=SFL001 - exact sentinel
                raise FaultInjectionError(
                    "FaultyPlanner faults must have probability=1.0; use an "
                    "engine-level FaultPlan for seeded stochastic activation"
                )
        self._inner = inner
        # The inner planner's float entry, taken once.
        self._plan_inner = inner.plan_floats
        self._faults: Tuple[PlannerFault, ...] = tuple(faults)
        self._step = 0
        self._last_command: Optional[float] = None
        self._injected = 0

    @property
    def inner(self) -> Planner:
        """The wrapped planner."""
        return self._inner

    @property
    def faults_injected(self) -> int:
        """Faulted steps so far (across the planner's lifetime)."""
        return self._injected

    def reset(self) -> None:
        """Restart the step schedule (the engine calls this per episode)."""
        self._step = 0
        self._last_command = None
        if hasattr(self._inner, "reset"):
            self._inner.reset()

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """One control step: fault if scheduled, else delegate to the
        inner planner's ``plan_floats``.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]

        Effects: mutates-args, draws-rng
        """
        step = self._step
        self._step = step + 1
        fault = self._fault_at(step)
        if fault is None:
            command = self._plan_inner(
                time, position, velocity, acceleration, estimates, tracer
            )
            self._last_command = command
            return command
        return self._inject(step, fault)

    def _inject(self, step: int, fault: PlannerFault) -> float:
        """The faulted step's command, or its exception."""
        self._injected += 1
        if fault.kind is PlannerFaultKind.NAN:
            return math.nan
        if fault.kind is PlannerFaultKind.LATENCY:
            if self._last_command is None:
                raise PlannerFaultError(
                    "injected latency fault before any command existed"
                )
            return self._last_command
        raise PlannerFaultError(
            f"injected planner exception at step {step} "
            f"(window [{fault.window.start}, {fault.window.stop}))"
        )

    def _fault_at(self, step: int) -> Optional[PlannerFault]:
        for fault in self._faults:
            if fault.window.contains(step):
                return fault
        return None
