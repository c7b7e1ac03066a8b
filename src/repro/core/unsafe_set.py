"""The scenario-agnostic safety-model protocol.

The runtime monitor of Section III-C needs two memberships of the
information available at a control step (the ego's own state plus fused
estimates of the other vehicles):

* membership in the (conservatively estimated) **unsafe set** ``X_u`` —
  states where a safety violation can no longer be ruled out;
* membership in the **boundary safe set** ``X_b`` (Eq. (3)) — safe
  states from which some admissible one-step evolution lands in ``X_u``.

A safety model answers both in one call, :meth:`SafetyModel.decide`, on
the ego's floats.  Scenario packages (e.g.
:mod:`repro.scenarios.left_turn.unsafe_set`) implement this protocol
from their geometry; everything in :mod:`repro.core` is generic over it,
which is what makes the framework applicable "to any NN-based planner"
and any scenario, as the paper claims.

Soundness contract: both memberships must be evaluated against
*over-approximating* estimates of the other vehicles (the conservative
window in the left turn).  The safety theorem — a compound planner never
enters the true unsafe set — holds exactly when the estimated ``X_u``
contains the true one.
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol, Tuple, runtime_checkable

from repro.filtering.fusion import FusedEstimate

__all__ = ["SafetyModel"]


@runtime_checkable
class SafetyModel(Protocol):
    """The memberships the runtime monitor consults every control step."""

    def decide(
        self,
        time: float,
        position: float,
        velocity: float,
        estimates: Mapping[int, FusedEstimate],
    ) -> Tuple[bool, bool, Optional[Tuple[float, float]]]:
        """``(in_boundary, in_unsafe, window)`` for the ego at these floats.

        Units: time [s], position [m], velocity [m/s]

        ``in_boundary`` is ``X_b`` membership (some admissible next step
        may enter the unsafe set); ``in_unsafe`` is estimated ``X_u``
        membership (the current information cannot rule out a
        violation).  ``window`` is the ``(lo, hi)`` conflict window, in
        seconds, that the model evaluated, or ``None``.
        """
        ...
