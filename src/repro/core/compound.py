"""The compound planner ``kappa_c`` (Section III-A).

A :class:`CompoundPlanner` embeds any NN-based (or other) planner and
wraps it with the runtime monitor and the emergency planner:

* each step the monitor asks the safety model for the boundary-safe-set
  and unsafe-set memberships over the fused estimates;
* when the monitor flags danger, the emergency planner commands the
  step — safety is guaranteed by the Eq. (4) property of that planner;
* otherwise the embedded planner commands the step, and its raw output
  is sanitised (NaN/inf rejected, clipped to the actuation limits), so a
  pathological network cannot break the safety argument.

The planner also exposes per-run telemetry (emergency step count, last
decision) that the experiment harness turns into the paper's "emergency
frequency" column.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.core.monitor import MonitorDecision, RuntimeMonitor
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import PlannerError
from repro.filtering.fusion import FusedEstimate
from repro.obs.observer import resolve_observer, traced_call
from repro.planners.base import Planner, clipped

__all__ = ["CompoundPlanner"]


class CompoundPlanner:
    """Monitor-guarded composition of an NN planner and an emergency planner.

    Parameters
    ----------
    nn_planner:
        The embedded planner (``kappa_n``); any object satisfying the
        :class:`~repro.planners.base.Planner` protocol.
    emergency_planner:
        The scenario's emergency planner (``kappa_e``); must satisfy the
        Eq. (4) invariant for the monitor's safety model.
    monitor:
        The runtime monitor, built on the scenario's conservative safety
        model.
    limits:
        Ego actuation limits used to sanitise commands.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; records
        shield-switch events (engage/release with cause), per-step
        safety-margin and boundary-distance samples, and counters.
        Write-only: the decision logic never reads it.
    """

    def __init__(
        self,
        nn_planner: Planner,
        emergency_planner: Planner,
        monitor: RuntimeMonitor,
        limits: VehicleLimits,
        observer=None,
    ) -> None:
        self._nn = nn_planner
        self._emergency = emergency_planner
        self._monitor = monitor
        self._limits = limits
        self._obs = resolve_observer(observer)
        # Each planner's float entry, taken once.
        self._plan_nn = nn_planner.plan_floats
        self._plan_emergency = emergency_planner.plan_floats
        shares = getattr(nn_planner, "shares_window_with", None)
        self._nn_shares_window = shares is not None and shares(
            monitor.safety_model
        )
        self._last_decision: Optional[MonitorDecision] = None
        self._embedded_failures = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nn_planner(self) -> Planner:
        """The embedded NN-based planner."""
        return self._nn

    @property
    def emergency_planner(self) -> Planner:
        """The emergency planner."""
        return self._emergency

    @property
    def monitor(self) -> RuntimeMonitor:
        """The runtime monitor (carries the per-run counters)."""
        return self._monitor

    @property
    def last_decision(self) -> Optional[MonitorDecision]:
        """The decision taken at the most recent step, if any."""
        return self._last_decision

    @property
    def emergency_frequency(self) -> float:
        """Fraction of steps commanded by the emergency planner."""
        return self._monitor.emergency_frequency

    @property
    def embedded_failures(self) -> int:
        """Steps where the embedded planner raised and was contained."""
        return self._embedded_failures

    # ------------------------------------------------------------------
    # Planner protocol
    # ------------------------------------------------------------------
    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
    ) -> float:
        """One monitored control step on the ego's floats.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]

        A raising embedded planner is contained: the monitor only ever
        admits states from which the emergency planner keeps the system
        safe forever (the Eq. (4) induction), so when the embedded
        planner fails — a genuine :class:`~repro.errors.PlannerError` or
        an injected :class:`~repro.errors.PlannerFaultError` — the step
        falls back to the emergency command without voiding the theorem.

        The embedded and emergency planners are called through their
        ``plan_floats``.  An NN planner whose window is the monitor's
        receives the window the monitor already evaluated.  With a
        ``tracer`` the monitor runs in a ``shield.monitor`` span and the
        float planners time themselves.

        Effects: mutates-args, draws-rng
        """
        if tracer is None:
            decision, window = self._monitor.decide(
                time, position, velocity, estimates
            )
        else:
            decision, window = traced_call(
                tracer, "shield.monitor", self._monitor.decide,
                time, position, velocity, estimates,
            )
        if self._obs.enabled:
            self._observe_decision(time, position, velocity, estimates, decision)
        self._last_decision = decision
        if decision.use_emergency:
            command = self._plan_emergency(
                time, position, velocity, acceleration, estimates, tracer
            )
        else:
            try:
                if self._nn_shares_window:
                    command = self._nn.plan_floats(
                        time, position, velocity, acceleration, estimates,
                        tracer, window,
                    )
                else:
                    command = self._plan_nn(
                        time, position, velocity, acceleration, estimates, tracer
                    )
            except PlannerError:
                self._embedded_failures += 1
                if self._obs.enabled:
                    self._obs.instant("shield.embedded_failure", t=time)
                    self._obs.count("shield.embedded_failures")
                command = self._plan_emergency(
                    time, position, velocity, acceleration, estimates, tracer
                )
        return clipped(command, self._limits)

    def _observe_decision(
        self,
        time: float,
        position: float,
        velocity: float,
        estimates: Mapping[int, FusedEstimate],
        decision: MonitorDecision,
    ) -> None:
        """Emit shield telemetry for one step (enabled observers only).

        Units: time [s], position [m], velocity [m/s]

        Called *before* ``self._last_decision`` is overwritten so
        engage/release transitions compare against the previous step.
        Strictly write-only — nothing here feeds back into the command.
        """
        obs = self._obs
        previous = self._last_decision
        was_emergency = previous is not None and previous.use_emergency
        if decision.use_emergency and not was_emergency:
            obs.instant(
                "shield.engage",
                t=time,
                cause="unsafe" if decision.in_unsafe else "boundary",
            )
            obs.count("shield.engagements")
        elif was_emergency and not decision.use_emergency:
            obs.instant("shield.release", t=time)
        obs.count("shield.steps")
        if decision.use_emergency:
            obs.count("shield.emergency_steps")
        model = self._monitor.safety_model
        margin_of = getattr(model, "safety_margin", None)
        boundary_of = getattr(model, "boundary_distance", None)
        if margin_of is not None:
            margin = margin_of(time, position, velocity, estimates)
            if math.isfinite(margin):
                obs.sample("shield.margin", margin, t=time)
                obs.gauge("shield.margin", margin)
        if boundary_of is not None:
            distance = boundary_of(time, position, velocity, estimates)
            if math.isfinite(distance):
                obs.sample("shield.boundary_distance", distance, t=time)

    def reset(self) -> None:
        """Clear per-run telemetry (engine calls this between runs)."""
        self._monitor.reset()
        self._last_decision = None
        self._embedded_failures = 0
        if hasattr(self._nn, "reset"):
            self._nn.reset()
