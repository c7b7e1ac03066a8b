"""Interval reachability analysis for delayed messages.

Implements Eq. (2) of the paper: given the exact state ``(p(t_k), v(t_k))``
carried by the latest message and the physical limits of the sender, the
position at the current time ``t`` lies in ``[p_min(t), p_max(t)]`` where
the maximum assumes full acceleration ``a_max`` until the velocity cap
``v_max`` and cruising afterwards:

.. math::

    p_{max}(t) = \\begin{cases}
      p(t_k) + v(t_k)\\,\\Delta + \\tfrac12 a_{max} \\Delta^2,
        & v(t_k) + a_{max}\\Delta \\le v_{max};\\\\
      p(t_k) + v_{max}\\,\\Delta - \\frac{(v_{max} - v(t_k))^2}{2 a_{max}},
        & \\text{otherwise},
    \\end{cases}

with ``Δ = t - t_k``; ``p_min`` mirrors it with ``a_min``/``v_min``.
The second branch is the closed form of "accelerate to the cap, then
cruise": total distance at the cap minus the distance lost while still
accelerating.  These bounds are *sound* for the saturating
:class:`~repro.dynamics.vehicle.VehicleModel` — a property the test suite
verifies exhaustively — which is what makes the runtime monitor's unsafe
set an over-approximation and hence the safety theorem valid.

:meth:`ReachabilityAnalyzer.reach_box` is the one implementation, on
plain floats.  It propagates a whole *box* of initial conditions, needed
when the starting knowledge is itself a band (e.g. a noisy sensor
reading): the extremal trajectories start from the extremal corners.  An
exact state (a message) is the degenerate box.
"""

from __future__ import annotations

from typing import Tuple

from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError

__all__ = ["ReachabilityAnalyzer"]


class ReachabilityAnalyzer:
    """Eq. (2)-style forward reachability under velocity/acceleration limits.

    Parameters
    ----------
    limits:
        Physical limits of the *observed* vehicle.  Using limits narrower
        than the vehicle's true capabilities produces the paper's
        *aggressive* (under-approximating) estimate; the monitor must be
        given the true physical limits for soundness.
    """

    def __init__(self, limits: VehicleLimits) -> None:
        self._limits = limits

    @property
    def limits(self) -> VehicleLimits:
        """The limits assumed for the observed vehicle."""
        return self._limits

    # ------------------------------------------------------------------
    # Eq. (2) over a box of initial conditions
    # ------------------------------------------------------------------
    def reach_box(
        self,
        p_lo: float,
        p_hi: float,
        v_lo: float,
        v_hi: float,
        stamp: float,
        now: float,
    ) -> Tuple[float, float, float, float]:
        """Reachable ``(p_lo, p_hi, v_lo, v_hi)`` at ``now`` (Eq. (2)).

        Units: p_lo [m], p_hi [m], v_lo [m/s], v_hi [m/s], stamp [s], now [s]

        The initial knowledge is the box ``[p_lo, p_hi] x [v_lo, v_hi]``
        stamped ``stamp``; an exact state is the degenerate box.  The
        extremal trajectories are monotone in the initial position and
        velocity, so the reachable box comes from the two extreme
        corners.  Initial velocities are clipped to ``[v_min, v_max]``.
        This is the only implementation of Eq. (2).  Plain floats in,
        plain floats out: no band object is built and the result is not
        checked for NaN or emptiness.
        """
        elapsed = float(now) - float(stamp)
        if elapsed < -1e-12:
            raise ConfigurationError(
                f"reachability queried before the stamp: now={now} < stamp={stamp}"
            )
        if elapsed < 0.0:
            elapsed = 0.0
        limits = self._limits
        v_min = limits.v_min
        v_max = limits.v_max
        a_min = limits.a_min
        a_max = limits.a_max
        # The clips below are min/max written as conditionals (same
        # result, NaN included: the first operand wins unless the
        # comparison holds).
        v0_lo = float(v_lo)
        v0_lo = v_min if v_min > v0_lo else v0_lo
        v0_lo = v_max if v_max < v0_lo else v0_lo
        v0_hi = float(v_hi)
        v0_hi = v_min if v_min > v0_hi else v0_hi
        v0_hi = v_max if v_max < v0_hi else v0_hi
        # The extremal trajectories: the upper corner drives a_max toward
        # v_max, the lower one mirrors it with a_min toward v_min.  A NaN
        # end velocity fails both saturation tests and takes the plain
        # branch.  The saturating branch divides by a_max and a_min,
        # whose signs (a_min < 0 < a_max) VehicleLimits fixes at
        # construction.
        reach_lo = v0_lo + a_min * elapsed
        reach_hi = v0_hi + a_max * elapsed
        if elapsed == 0.0:
            return p_lo, p_hi, reach_lo, reach_hi
        if reach_hi > v_max:
            # Saturating branch of Eq. (2): cruise distance at the cap
            # minus the distance deficit accumulated while still ramping.
            deficit = (v_max - v0_hi) ** 2 / (2.0 * a_max)
            pos_hi = p_hi + v_max * elapsed - deficit
            reach_hi = v_max
        else:
            pos_hi = p_hi + v0_hi * elapsed + 0.5 * a_max * elapsed * elapsed
        if reach_lo < v_min:
            deficit = (v_min - v0_lo) ** 2 / (2.0 * a_min)
            pos_lo = p_lo + v_min * elapsed - deficit
            reach_lo = v_min
        else:
            pos_lo = p_lo + v0_lo * elapsed + 0.5 * a_min * elapsed * elapsed
        return pos_lo, pos_hi, reach_lo, reach_hi
