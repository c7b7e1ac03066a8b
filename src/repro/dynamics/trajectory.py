"""Trajectory recording and queries.

A :class:`Trajectory` is the timestamped path of one vehicle through a
simulation.  The evaluation harness uses trajectories to compute reaching
times, the figure-6a experiment compares sensor-measured versus filtered
trajectories, and the property tests replay recorded trajectories through
the reachability analysis.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError, SimulationError

__all__ = ["TrajectoryPoint", "Trajectory"]


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """One timestamped sample of a vehicle's state.

    Units: time [s]
    """

    time: float
    state: VehicleState

    @property
    def position(self) -> float:
        """Shortcut for ``state.position``."""
        return self.state.position

    @property
    def velocity(self) -> float:
        """Shortcut for ``state.velocity``."""
        return self.state.velocity

    @property
    def acceleration(self) -> float:
        """Shortcut for ``state.acceleration``."""
        return self.state.acceleration


class Trajectory:
    """An append-only, time-ordered sequence of vehicle states.

    Appends must be strictly increasing in time; queries support exact
    lookup, nearest-sample lookup, and linear interpolation.
    """

    def __init__(self, points: Optional[Sequence[TrajectoryPoint]] = None) -> None:
        self._times: List[float] = []
        self._points: List[TrajectoryPoint] = []
        if points:
            for point in points:
                self.append(point.time, point.state)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def append(self, time: float, state: VehicleState) -> None:
        """Append a sample; ``time`` must exceed the last recorded time.

        Units: time [s]
        """
        t = float(time)
        if math.isnan(t):
            raise ConfigurationError("trajectory time must not be NaN")
        if self._times and t <= self._times[-1]:
            raise SimulationError(
                f"trajectory times must be strictly increasing: "
                f"{t} after {self._times[-1]}"
            )
        # Kept as append-then-asarray deliberately: episodes terminate
        # early (collision/arrival) so the final length is unknown here,
        # list append is amortized O(1), and the bulk accessors run once
        # per episode for reporting, not per step.  The preallocated
        # structure-of-arrays layout belongs to the lockstep batch
        # engine, not this scalar recorder.
        self._times.append(t)  # safelint: disable=SFL302 - length unknown until terminal step
        self._points.append(TrajectoryPoint(time=t, state=state))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> TrajectoryPoint:
        return self._points[index]

    @property
    def is_empty(self) -> bool:
        """Whether no sample has been recorded."""
        return not self._points

    @property
    def start_time(self) -> float:
        """Time of the first sample."""
        self._require_nonempty()
        return self._times[0]

    @property
    def end_time(self) -> float:
        """Time of the last sample."""
        self._require_nonempty()
        return self._times[-1]

    @property
    def duration(self) -> float:
        """Covered time span (0 for a single sample)."""
        self._require_nonempty()
        return self._times[-1] - self._times[0]

    def last(self) -> TrajectoryPoint:
        """The most recent sample."""
        self._require_nonempty()
        return self._points[-1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def at_or_before(self, time: float) -> TrajectoryPoint:
        """Latest sample with ``sample.time <= time``.

        Units: time [s]

        Raises
        ------
        SimulationError
            If ``time`` precedes the first sample.
        """
        self._require_nonempty()
        idx = bisect.bisect_right(self._times, float(time)) - 1
        if idx < 0:
            raise SimulationError(
                f"no sample at or before t={time} (trajectory starts at "
                f"{self._times[0]})"
            )
        return self._points[idx]

    def interpolate(self, time: float) -> VehicleState:
        """Linearly interpolate position/velocity at ``time``.

        ``time`` must lie within the recorded span.  Acceleration is taken
        from the earlier bracketing sample (it is piecewise-constant over
        control steps in this library's simulations).

        Units: time [s]
        """
        self._require_nonempty()
        t = float(time)
        if t < self._times[0] or t > self._times[-1]:
            raise SimulationError(
                f"t={t} outside trajectory span "
                f"[{self._times[0]}, {self._times[-1]}]"
            )
        idx = bisect.bisect_left(self._times, t)
        # Exact hit on a stored sample (bisect found t itself): exact
        # float equality is intended, not drift-prone arithmetic.
        if idx < len(self._times) and self._times[idx] == t:  # safelint: disable=SFL001
            return self._points[idx].state
        lo = self._points[idx - 1]
        hi = self._points[idx]
        w = (t - lo.time) / (hi.time - lo.time)
        return VehicleState(
            position=lo.position + w * (hi.position - lo.position),
            velocity=lo.velocity + w * (hi.velocity - lo.velocity),
            acceleration=lo.acceleration,
        )

    # ------------------------------------------------------------------
    # Bulk accessors (for metrics / plotting-style reporting)
    # ------------------------------------------------------------------
    def times(self) -> np.ndarray:
        """All sample times as an array.

        Shapes: -> [N]
        """
        return np.asarray(self._times, dtype=float)

    def positions(self) -> np.ndarray:
        """All positions as an array.

        Shapes: -> [N]
        """
        return np.asarray([p.position for p in self._points], dtype=float)

    def velocities(self) -> np.ndarray:
        """All velocities as an array.

        Shapes: -> [N]
        """
        return np.asarray([p.velocity for p in self._points], dtype=float)

    def accelerations(self) -> np.ndarray:
        """All applied accelerations as an array.

        Shapes: -> [N]
        """
        return np.asarray([p.acceleration for p in self._points], dtype=float)

    def first_time_when(self, predicate) -> Optional[float]:
        """Earliest sample time whose state satisfies ``predicate``.

        Parameters
        ----------
        predicate:
            Callable ``(time, state) -> bool``.

        Returns
        -------
        float or None
            The first matching sample time, or ``None`` if no sample
            matches.
        """
        for point in self._points:
            if predicate(point.time, point.state):
                return point.time
        return None

    def _require_nonempty(self) -> None:
        if not self._points:
            raise SimulationError("trajectory is empty")
