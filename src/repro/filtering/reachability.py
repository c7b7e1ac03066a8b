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

The analyzer also propagates whole *intervals* of initial conditions,
needed when the starting knowledge is itself a band (e.g. a noisy sensor
reading): the extremal trajectories start from the extremal corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError
from repro.utils.intervals import Interval

__all__ = ["ReachBand", "ReachabilityAnalyzer"]


@dataclass(frozen=True, slots=True)
class ReachBand:
    """Reachable position/velocity intervals of a vehicle at one time."""

    time: float
    position: Interval
    velocity: Interval

    def __str__(self) -> str:
        return (
            f"reach[t={self.time:.3f}s p in {self.position} "
            f"v in {self.velocity}]"
        )


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
        This is the only implementation of Eq. (2); every other method
        of the analyzer wraps it.  Plain floats in, plain floats out:
        no band object is built and the result is not checked for NaN
        or emptiness.
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
        v0_lo = min(max(float(v_lo), v_min), v_max)
        v0_hi = min(max(float(v_hi), v_min), v_max)
        return (
            _extremal_position(p_lo, v0_lo, elapsed, limits.a_min, v_min),
            _extremal_position(p_hi, v0_hi, elapsed, limits.a_max, v_max),
            max(v0_lo + limits.a_min * elapsed, v_min),
            min(v0_hi + limits.a_max * elapsed, v_max),
        )

    # ------------------------------------------------------------------
    # Scalar extremal trajectories
    # ------------------------------------------------------------------
    def max_position(self, position: float, velocity: float, elapsed: float) -> float:
        """Upper position bound after ``elapsed`` seconds (Eq. (2)).

        Units: position [m], velocity [m/s], elapsed [s] -> [m]
        """
        self._check_elapsed(elapsed)
        return self.reach_box(position, position, velocity, velocity, 0.0, elapsed)[1]

    def min_position(self, position: float, velocity: float, elapsed: float) -> float:
        """Lower position bound after ``elapsed`` seconds (mirror of Eq. (2)).

        Units: position [m], velocity [m/s], elapsed [s] -> [m]
        """
        self._check_elapsed(elapsed)
        return self.reach_box(position, position, velocity, velocity, 0.0, elapsed)[0]

    def max_velocity(self, velocity: float, elapsed: float) -> float:
        """Upper velocity bound after ``elapsed`` seconds.

        Units: velocity [m/s], elapsed [s] -> [m/s]
        """
        self._check_elapsed(elapsed)
        return self.reach_box(0.0, 0.0, velocity, velocity, 0.0, elapsed)[3]

    def min_velocity(self, velocity: float, elapsed: float) -> float:
        """Lower velocity bound after ``elapsed`` seconds.

        Units: velocity [m/s], elapsed [s] -> [m/s]
        """
        self._check_elapsed(elapsed)
        return self.reach_box(0.0, 0.0, velocity, velocity, 0.0, elapsed)[2]

    # ------------------------------------------------------------------
    # Bands
    # ------------------------------------------------------------------
    def band_from_state(self, state: VehicleState, stamp: float, now: float) -> ReachBand:
        """Reachable band at ``now`` from an exact state stamped ``stamp``.

        Units: stamp [s], now [s]
        """
        p_lo, p_hi, v_lo, v_hi = self.reach_box(
            state.position, state.position, state.velocity, state.velocity, stamp, now
        )
        return ReachBand(
            time=float(now),
            position=Interval(p_lo, p_hi),
            velocity=Interval(v_lo, v_hi),
        )

    def band_from_intervals(
        self,
        position: Interval,
        velocity: Interval,
        stamp: float,
        now: float,
    ) -> ReachBand:
        """Reachable band from *interval* initial knowledge.

        Units: position [m], velocity [m/s], stamp [s], now [s]
        """
        if position.is_empty or velocity.is_empty:
            raise ConfigurationError(
                "cannot propagate an empty initial band"
            )
        p_lo, p_hi, v_lo, v_hi = self.reach_box(
            position.lo, position.hi, velocity.lo, velocity.hi, stamp, now
        )
        return ReachBand(
            time=float(now),
            position=Interval(p_lo, p_hi),
            velocity=Interval(v_lo, v_hi),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_elapsed(elapsed: float) -> None:
        if elapsed < 0.0:
            raise ConfigurationError(
                f"elapsed time must be >= 0, got {elapsed}"
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
