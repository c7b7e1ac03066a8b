"""The runtime monitor (Section III-C).

Every control step the monitor evaluates the safety model's predicates on
the fused estimates and decides which planner controls the ego:

* in the **boundary safe set** — the state is one worst-case step from
  the unsafe set — the emergency planner takes over (the "last line of
  defense");
* in the estimated **unsafe set** itself — which a correct compound
  planner never reaches from safe initial states, but which the ego's
  *projected* occupancy window can drift into while crossing the area —
  the emergency planner also takes over, whose escape branch clears the
  area at full throttle;
* otherwise the embedded NN-based planner keeps control.

The monitor records per-run counters from which the experiments derive
the paper's *emergency frequency* column (the percentage of control steps
commanded by the emergency planner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.core.unsafe_set import SafetyModel
from repro.dynamics.state import VehicleState
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import PlanningContext

__all__ = ["MonitorDecision", "RuntimeMonitor"]


@dataclass(frozen=True, slots=True)
class MonitorDecision:
    """Outcome of one monitor evaluation.

    There are four possible decisions; the monitor hands out one shared
    instance of each.

    Attributes
    ----------
    use_emergency:
        Whether the emergency planner must control this step.
    in_boundary:
        Boundary-safe-set membership at this step.
    in_unsafe:
        Estimated-unsafe-set membership at this step (should stay False
        for a correctly configured compound planner outside the crossing
        corner case described in the module docstring).
    """

    use_emergency: bool
    in_boundary: bool
    in_unsafe: bool


#: The four decisions, keyed by ``(in_boundary, in_unsafe)``.
_DECISIONS = {
    (in_boundary, in_unsafe): MonitorDecision(
        use_emergency=in_boundary or in_unsafe,
        in_boundary=in_boundary,
        in_unsafe=in_unsafe,
    )
    for in_boundary in (False, True)
    for in_unsafe in (False, True)
}


def _joint_decide(model: SafetyModel):
    """``model.decide`` if it answers the model's own predicates, else None.

    A subclass that overrides a predicate below the class defining
    ``decide`` is asked each predicate in turn, so the override is seen.
    """
    cls = type(model)
    owner = next((c for c in cls.__mro__ if "decide" in vars(c)), None)
    if owner is None:
        return None
    for name in ("in_boundary_safe_set", "in_estimated_unsafe_set"):
        if getattr(cls, name, None) is not getattr(owner, name, None):
            return None
    return model.decide


class RuntimeMonitor:
    """Selects between the NN-based and the emergency planner each step."""

    def __init__(self, safety_model: SafetyModel) -> None:
        self._model = safety_model
        #: Both predicates in one call, where the model offers it.
        self._model_decide = _joint_decide(safety_model)
        self._decisions = 0
        self._emergency_decisions = 0
        self._unsafe_decisions = 0

    @property
    def safety_model(self) -> SafetyModel:
        """The scenario safety model consulted each step."""
        return self._model

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def evaluate(self, context: PlanningContext) -> MonitorDecision:
        """Evaluate both predicates and record the decision."""
        ego = context.ego
        return self.decide(
            context.time, ego.position, ego.velocity, ego.acceleration,
            context.estimates,
        )[0]

    def decide(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
    ) -> Tuple[MonitorDecision, Optional[Tuple[float, float]]]:
        """:meth:`evaluate` on the ego's floats, plus the conflict window.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]

        A safety model with a ``decide(time, position, velocity,
        estimates)`` method (the left-turn family) answers both
        predicates in one call and returns the ``(lo, hi)`` window it
        evaluated, or ``None``.  Any other model, or a subclass that
        overrides a predicate but not ``decide``, is asked each
        predicate in turn on the ego state the floats make, and no
        window is returned.
        """
        decide = self._model_decide
        if decide is not None:
            in_boundary, in_unsafe, window = decide(time, position, velocity, estimates)
        else:
            model = self._model
            ego = VehicleState(position, velocity, acceleration)
            in_boundary = bool(model.in_boundary_safe_set(time, ego, estimates))
            in_unsafe = bool(model.in_estimated_unsafe_set(time, ego, estimates))
            window = None
        decision = _DECISIONS[in_boundary, in_unsafe]
        self._decisions += 1
        if decision.use_emergency:
            self._emergency_decisions += 1
        if in_unsafe:
            self._unsafe_decisions += 1
        return decision, window

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def decisions(self) -> int:
        """Total monitor evaluations since the last reset."""
        return self._decisions

    @property
    def emergency_decisions(self) -> int:
        """How many evaluations selected the emergency planner."""
        return self._emergency_decisions

    @property
    def unsafe_decisions(self) -> int:
        """How many evaluations found the estimated unsafe set entered."""
        return self._unsafe_decisions

    @property
    def emergency_frequency(self) -> float:
        """Fraction of steps commanded by the emergency planner."""
        if self._decisions == 0:
            return 0.0
        return self._emergency_decisions / self._decisions

    def reset(self) -> None:
        """Clear the counters (called by the engine between simulations)."""
        self._decisions = 0
        self._emergency_decisions = 0
        self._unsafe_decisions = 0
