"""Fusion of reachability bands and Kalman confidence bands.

The paper's information filter joins its two estimates by interval
intersection: if reachability analysis places a vehicle's position in
``[p_1, p_2]`` and the Kalman filter in ``[p_3, p_4]``, the joined
estimate is ``[max(p_1, p_3), min(p_2, p_4)]`` (Section III-B).

The reachability band is a *guaranteed* over-approximation; the Kalman
band (``mean ± n·sigma``) is only probabilistic.  When the two are
disjoint — which can only happen if the Kalman band is wrong — the fusion
falls back to the guaranteed band, so downstream safety reasoning never
consumes an empty or unsound interval.

:func:`join_or_fallback` is that rule on plain floats; the estimators
call it once per axis and band every control step.
:func:`intersect_or_fallback` and :func:`fuse_bands` are the same rule
over :class:`~repro.utils.intervals.Interval` and
:class:`~repro.filtering.reachability.ReachBand`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.dynamics.state import VehicleState
from repro.errors import FilterError
from repro.filtering.reachability import ReachBand
from repro.utils.intervals import Interval

__all__ = [
    "FusedEstimate",
    "fuse_bands",
    "intersect_or_fallback",
    "join_or_fallback",
]


@dataclass(frozen=True, slots=True)
class FusedEstimate:
    """The information available about one remote vehicle at one instant.

    Attributes
    ----------
    time:
        The instant the estimate refers to.
    position, velocity:
        Intervals believed to contain the vehicle's true position and
        velocity.  For the monitor's safety reasoning these must be sound
        over-approximations (they are, up to the Kalman band confidence).
    nominal:
        A point estimate (Kalman mean when available, band midpoint
        otherwise) used by the aggressive unsafe-set estimation and as the
        NN planner's feature input.
    message_age:
        Seconds since the stamp of the newest received message, or
        ``None`` when no message has ever arrived.
    """

    time: float
    position: Interval
    velocity: Interval
    nominal: VehicleState
    message_age: Optional[float] = None

    def __post_init__(self) -> None:
        position = self.position
        velocity = self.velocity
        # Interval.is_empty on both bands, without the property calls.
        if position.lo > position.hi or velocity.lo > velocity.hi:
            raise FilterError(
                "FusedEstimate requires non-empty position/velocity bands"
            )

    @property
    def position_uncertainty(self) -> float:
        """Width of the position band."""
        return self.position.width

    @property
    def velocity_uncertainty(self) -> float:
        """Width of the velocity band."""
        return self.velocity.width

    def __str__(self) -> str:
        age = "-" if self.message_age is None else f"{self.message_age:.2f}s"
        return (
            f"est[t={self.time:.3f}s p in {self.position} v in "
            f"{self.velocity} msg_age={age}]"
        )


def join_or_fallback(
    sound_lo: float, sound_hi: float, refining_lo: float, refining_hi: float
) -> Tuple[float, float]:
    """Intersect a guaranteed band with a refining band, on plain floats.

    A band ``(lo, hi)`` with ``lo > hi`` is empty.  Returns the
    intersection ``(max(lo), min(hi))`` when non-empty, otherwise the
    guaranteed band.  The guaranteed band must be non-empty; neither may
    hold a NaN.
    """
    if sound_lo > sound_hi:
        raise FilterError("the guaranteed band must be non-empty")
    lo = max(sound_lo, refining_lo)
    hi = min(sound_hi, refining_hi)
    if lo > hi:
        return sound_lo, sound_hi
    return lo, hi


def intersect_or_fallback(sound: Interval, refining: Interval) -> Interval:
    """Intersect a guaranteed band with a refining band.

    Returns the intersection when non-empty, otherwise the guaranteed
    band.  ``sound`` must be non-empty.
    """
    return Interval(*join_or_fallback(sound.lo, sound.hi, refining.lo, refining.hi))


def fuse_bands(
    reach: ReachBand,
    kf_position: Interval,
    kf_velocity: Interval,
) -> ReachBand:
    """Join a reachability band with Kalman confidence bands.

    Implements the paper's max/min join with the guaranteed-band fallback
    described in the module docstring.
    """
    return ReachBand(
        time=reach.time,
        position=intersect_or_fallback(reach.position, kf_position),
        velocity=intersect_or_fallback(reach.velocity, kf_velocity),
    )
