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
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

from repro.dynamics.state import nan_state_error
from repro.errors import FilterError
from repro.utils.intervals import nan_bounds_error

__all__ = ["FusedEstimate", "join_or_fallback"]

_INF = math.inf


class _EstimateFields(NamedTuple):
    time: float
    p_lo: float
    p_hi: float
    v_lo: float
    v_hi: float
    p: float
    v: float
    a: float
    message_age: Optional[float]


class FusedEstimate(_EstimateFields):
    """The information available about one remote vehicle at one instant.

    One flat, immutable record of floats, checked on construction:

    time:
        The instant the estimate refers to.
    p_lo, p_hi, v_lo, v_hi:
        The bands believed to contain the vehicle's true position and
        velocity.  For the monitor's safety reasoning these must be sound
        over-approximations (they are, up to the Kalman band confidence).
    p, v, a:
        The nominal point estimate (Kalman mean when available, band
        midpoint otherwise) used by the aggressive unsafe-set estimation
        and as the NN planner's feature input.
    message_age:
        Seconds since the stamp of the newest received message, or
        ``None`` when no message has ever arrived.

    ``FusedEstimate(...)`` and its alias :meth:`of` take these fields and
    raise what an :class:`~repro.utils.intervals.Interval` band or a
    :class:`~repro.dynamics.state.VehicleState` nominal would: an
    :class:`~repro.errors.IntervalError` for a NaN band endpoint, a
    :class:`~repro.errors.ConfigurationError` for a NaN nominal field and
    a :class:`~repro.errors.FilterError` for an empty band.

    Units: time [s], p_lo [m], p_hi [m], v_lo [m/s], v_hi [m/s], p [m]
    Units: v [m/s], a [m/s^2], message_age [s]
    """

    __slots__ = ()

    def __new__(
        cls,
        time: float,
        p_lo: float,
        p_hi: float,
        v_lo: float,
        v_hi: float,
        p: float,
        v: float,
        a: float,
        message_age: Optional[float] = None,
    ) -> "FusedEstimate":
        # NaN fails every comparison; infinities pass these.
        if not (p_lo <= _INF and p_hi <= _INF):
            raise nan_bounds_error(float(p_lo), float(p_hi))
        if not (v_lo <= _INF and v_hi <= _INF):
            raise nan_bounds_error(float(v_lo), float(v_hi))
        if not (p <= _INF and v <= _INF and a <= _INF):
            raise nan_state_error(p, v, a)
        if p_lo > p_hi or v_lo > v_hi:
            raise FilterError(
                "FusedEstimate requires non-empty position/velocity bands"
            )
        return tuple.__new__(
            cls, (time, p_lo, p_hi, v_lo, v_hi, p, v, a, message_age)
        )

    #: The checked constructor by name, as the estimators call it.
    of = classmethod(__new__)

    def __reduce__(self):
        # Through the checked constructor whatever the pickle protocol.
        return (type(self), tuple(self))

    def __str__(self) -> str:
        age = "-" if self.message_age is None else f"{self.message_age:.2f}s"
        return (
            f"est[t={self.time:.3f}s p in [{self.p_lo:g}, {self.p_hi:g}] v in "
            f"[{self.v_lo:g}, {self.v_hi:g}] msg_age={age}]"
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
    # max(sound_lo, refining_lo) and min(sound_hi, refining_hi) written
    # as conditionals: the same result (a NaN refining bound loses), at
    # no builtin call, on the hottest path of every estimate.
    lo = refining_lo if refining_lo > sound_lo else sound_lo
    hi = refining_hi if refining_hi < sound_hi else sound_hi
    if lo > hi:
        return sound_lo, sound_hi
    return lo, hi
