"""Closed-interval arithmetic.

The information filter of the paper (Section III-B) fuses two estimates of
another vehicle's state by *interval intersection*: a reachability interval
derived from the latest (possibly stale) message and a confidence band from
the Kalman filter.  The runtime monitor then tests unsafe-set membership
over those intervals.  This module provides the small, well-tested interval
algebra all of that rests on.

Intervals are closed, may be unbounded (``±inf`` endpoints), and may be
*empty* (represented canonically with ``lo > hi``; see :attr:`Interval.EMPTY`).
All operations treat the empty interval consistently: it is absorbing for
intersection and the identity for union-like hull operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator

from repro.errors import EmptyIntervalError, IntervalError

__all__ = ["Interval", "band_midpoint", "bounds_overlap", "nan_bounds_error"]


def nan_bounds_error(lo: float, hi: float) -> IntervalError:
    """The error :class:`Interval` raises for a NaN endpoint.

    Float code that returns ``(lo, hi)`` bounds instead of an interval
    raises this after its own ``math.isnan`` check, so the two paths fail
    alike.
    """
    return IntervalError(f"interval endpoints must not be NaN: [{lo}, {hi}]")


def bounds_overlap(lo: float, hi: float, other_lo: float, other_hi: float) -> bool:
    """:meth:`Interval.overlaps` on float bounds (``lo > hi`` is empty)."""
    if lo > hi or other_lo > other_hi:
        return False
    return lo <= other_hi and other_lo <= hi


def band_midpoint(lo: float, hi: float) -> float:
    """:attr:`Interval.midpoint` on float bounds, with the same two checks.

    Raises
    ------
    EmptyIntervalError
        If ``lo > hi``.
    IntervalError
        If either bound is infinite or NaN.
    """
    if lo > hi:
        raise EmptyIntervalError("empty interval has no midpoint")
    if not (-math.inf < lo and hi < math.inf):
        raise IntervalError("unbounded interval has no midpoint")
    return 0.5 * (lo + hi)


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed real interval ``[lo, hi]``.

    Instances are immutable and hashable.  An interval with ``lo > hi`` is
    *empty*; the canonical empty interval is :attr:`Interval.EMPTY`
    (``[+inf, -inf]``), and the constructor normalises every empty input to
    it so that equality works structurally.

    Examples
    --------
    >>> Interval(1.0, 3.0).intersect(Interval(2.0, 5.0))
    Interval(lo=2.0, hi=3.0)
    >>> Interval(1.0, 2.0).intersect(Interval(3.0, 4.0)).is_empty
    True
    """

    lo: float
    hi: float

    #: Canonical empty interval (assigned after the class body).
    EMPTY: ClassVar["Interval"]

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise nan_bounds_error(lo, hi)
        if lo > hi:
            lo, hi = math.inf, -math.inf
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, value: float) -> "Interval":
        """Return the degenerate interval ``[value, value]``."""
        return cls(value, value)

    @classmethod
    def around(cls, center: float, radius: float) -> "Interval":
        """Return ``[center - radius, center + radius]``.

        Raises
        ------
        IntervalError
            If ``radius`` is negative.
        """
        if radius < 0:
            raise IntervalError(f"radius must be nonnegative, got {radius}")
        return cls(center - radius, center + radius)

    @classmethod
    def unbounded(cls) -> "Interval":
        """Return ``[-inf, +inf]``."""
        return cls(-math.inf, math.inf)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether this interval contains no point."""
        return self.lo > self.hi

    @property
    def is_point(self) -> bool:
        """Whether this interval is a single point."""
        return self.lo == self.hi  # safelint: disable=SFL001 - definitional

    @property
    def is_bounded(self) -> bool:
        """Whether both endpoints are finite (the empty interval is bounded)."""
        if self.is_empty:
            return True
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies in the interval (endpoints inclusive)."""
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` is a subset of this interval."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one point.

        This is the predicate the unsafe set of Eq. (6) uses on the
        projected passing-time windows of the two vehicles.
        """
        return bounds_overlap(self.lo, self.hi, other.lo, other.hi)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        """Length of the interval; ``0.0`` if empty."""
        if self.is_empty:
            return 0.0
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        """Midpoint of a non-empty bounded interval.

        Raises
        ------
        EmptyIntervalError
            If the interval is empty.
        IntervalError
            If the interval is unbounded.
        """
        return band_midpoint(self.lo, self.hi)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        """Return the intersection (possibly empty)."""
        if self.is_empty or other.is_empty:
            return Interval.EMPTY
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        """Return the smallest interval containing both operands."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def expand(self, margin: float) -> "Interval":
        """Return this interval grown by ``margin`` on both sides.

        A negative margin shrinks the interval and may empty it.  Expanding
        the empty interval yields the empty interval.
        """
        if self.is_empty:
            return Interval.EMPTY
        return Interval(self.lo - margin, self.hi + margin)

    def shift(self, offset: float) -> "Interval":
        """Return this interval translated by ``offset``."""
        if self.is_empty:
            return Interval.EMPTY
        return Interval(self.lo + offset, self.hi + offset)

    def scale(self, factor: float) -> "Interval":
        """Return this interval scaled about the origin by ``factor``."""
        if self.is_empty:
            return Interval.EMPTY
        a = self.lo * factor
        b = self.hi * factor
        return Interval(min(a, b), max(a, b))

    def clamp(self, value: float) -> float:
        """Project ``value`` onto the interval.

        Raises
        ------
        EmptyIntervalError
            If the interval is empty.
        """
        if self.is_empty:
            raise EmptyIntervalError("cannot clamp onto an empty interval")
        return min(max(value, self.lo), self.hi)

    def sample(self, u: float) -> float:
        """Map ``u`` in ``[0, 1]`` affinely onto the interval.

        Useful to draw uniform samples: ``iv.sample(rng.random())``.

        Raises
        ------
        EmptyIntervalError
            If the interval is empty.
        IntervalError
            If ``u`` is outside ``[0, 1]`` or the interval is unbounded.
        """
        if self.is_empty:
            raise EmptyIntervalError("cannot sample from an empty interval")
        if not 0.0 <= u <= 1.0:
            raise IntervalError(f"u must be in [0, 1], got {u}")
        if not self.is_bounded:
            raise IntervalError("cannot sample from an unbounded interval")
        # Clamp: the affine map can land an ulp outside under rounding
        # (e.g. lo + 1.0 * (hi - lo) != hi when |lo| >> |hi|).
        return self.clamp(self.lo + u * (self.hi - self.lo))

    def __add__(self, other: "Interval") -> "Interval":
        """Minkowski sum of two intervals."""
        if self.is_empty or other.is_empty:
            return Interval.EMPTY
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        if self.is_empty:
            return Interval.EMPTY
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        """Minkowski difference ``{a - b}`` of two intervals."""
        return self + (-other)

    def __contains__(self, value: float) -> bool:
        return self.contains(value)

    def __iter__(self) -> Iterator[float]:
        """Iterate ``(lo, hi)`` so ``lo, hi = interval`` unpacks."""
        yield self.lo
        yield self.hi

    def __bool__(self) -> bool:
        """Truthiness is non-emptiness."""
        return not self.is_empty

    def __str__(self) -> str:
        if self.is_empty:
            return "[empty]"
        return f"[{self.lo:g}, {self.hi:g}]"


# The canonical empty interval, defined after the class body so that the
# dataclass machinery is complete.
Interval.EMPTY = Interval(math.inf, -math.inf)
