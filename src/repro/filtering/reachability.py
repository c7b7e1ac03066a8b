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
        # The limits reach_box reads, bound once (VehicleLimits is frozen).
        self._box_limits = (limits.v_min, limits.v_max, limits.a_min, limits.a_max)

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
        v_min, v_max, a_min, a_max = self._box_limits
        # The clips below are min/max written as conditionals (same
        # result, NaN included: the first operand wins unless the
        # comparison holds).
        v0_lo = float(v_lo)
        v0_lo = v_min if v_min > v0_lo else v0_lo
        v0_lo = v_max if v_max < v0_lo else v0_lo
        v0_hi = float(v_hi)
        v0_hi = v_min if v_min > v0_hi else v0_hi
        v0_hi = v_max if v_max < v0_hi else v0_hi
        reach_lo = v0_lo + a_min * elapsed
        reach_hi = v0_hi + a_max * elapsed
        return (
            _extremal_position(p_lo, v0_lo, elapsed, a_min, v_min),
            _extremal_position(p_hi, v0_hi, elapsed, a_max, v_max),
            v_min if v_min > reach_lo else reach_lo,
            v_max if v_max < reach_hi else reach_hi,
        )


def _extremal_position(
    position: float, v0: float, elapsed: float, accel: float, v_cap: float
) -> float:
    """Position after driving the extremal input toward ``v_cap`` (Eq. (2)).

    Units: position [m], v0 [m/s], elapsed [s], accel [m/s^2], v_cap [m/s] -> [m]

    ``v0`` is already clipped to the velocity range; ``accel`` and
    ``v_cap`` are either both the "max" pair or both the "min" pair, the
    algebra is symmetric.
    """
    if elapsed == 0.0:
        return position
    v_end = v0 + accel * elapsed
    toward_cap = (accel > 0.0 and v_end > v_cap) or (
        accel < 0.0 and v_end < v_cap
    )
    if accel == 0.0 or not toward_cap:
        return position + v0 * elapsed + 0.5 * accel * elapsed * elapsed
    # Saturating branch of Eq. (2): cruise distance at the cap minus the
    # distance deficit accumulated while still ramping up (or down).
    return position + v_cap * elapsed - (v_cap - v0) ** 2 / (2.0 * accel)
