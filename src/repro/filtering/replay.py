"""Kalman filtering with message replay.

Section III-B of the paper extends the classical filter: "in each
transmission period the extrapolated state and covariance are stored in
the memory.  Then, every time a message recording the states of ``C_i`` at
time ``t_k`` arrives, they are restored, and the filter renews the
estimations from ``t_k`` to the current timestamp based on the message."

:class:`ReplayKalmanFilter` implements that design:

* at every sensing instant it logs the sensor reading in an append-only
  list (readings must advance in time, so the list stays sorted and old
  entries are cut from the front);
* when a (possibly delayed) message stamped ``t_k`` arrives, the filter
  rewinds to ``t_k``, replaces the estimate there with the message's exact
  state (zero covariance — message content is accurate in the paper's
  model), and replays every logged sensor update between ``t_k`` and the
  present, leaving a strictly better posterior.

Where the paper restores the stored prediction at ``t_k``, this filter
restarts from the message's exact state, which replaces that estimate
anyway, so no prediction at a logged reading is kept.

Messages older than an already-replayed message are ignored (they carry no
new information and would only discard the better restart point).
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, List, Optional, Tuple

from repro.comm.message import Message
from repro.errors import FilterError, ReplayError
from repro.filtering.kalman import Fields, KalmanFilter, KalmanState
from repro.sensing.sensor import SensorReading

__all__ = ["ReplayKalmanFilter"]

#: Called with a reading and the fields of the filter's prediction at its
#: time (those of a :class:`KalmanState`, in its order), before the
#: update (the information filter's divergence watchdog).
Gate = Callable[[SensorReading, Fields], None]


_INF = math.inf


def _check_reading(reading: SensorReading) -> None:
    """Reject a reading with a non-finite field before it touches any state."""
    # Finite floats lie strictly between the infinities; NaN fails both.
    if not (
        -_INF < reading.time < _INF
        and -_INF < reading.position < _INF
        and -_INF < reading.velocity < _INF
        and -_INF < reading.acceleration < _INF
    ):
        raise FilterError(f"non-finite sensor reading: {reading}")


class ReplayKalmanFilter:
    """A Kalman filter that can rewind and replay on message arrival.

    Parameters
    ----------
    kalman:
        The underlying constant-matrix filter.
    history_horizon:
        How far back (seconds) sensor readings are kept.
        Messages older than this cannot be replayed and are ignored; the
        horizon bounds memory for long simulations.
    """

    def __init__(self, kalman: KalmanFilter, history_horizon: float = 30.0) -> None:
        if not history_horizon > 0.0:
            raise FilterError(
                f"history_horizon must be > 0, got {history_horizon}"
            )
        self._kalman = kalman
        self._horizon = float(history_horizon)
        self._posterior: Optional[KalmanState] = None
        #: acceleration knowledge used to extrapolate past the posterior
        self._current_accel: float = 0.0
        #: Logged readings in time order, and their times.
        self._readings: List[SensorReading] = []
        self._reading_times: List[float] = []
        self._last_replayed_stamp: float = float("-inf")
        self._replay_count = 0
        self._last_replay_depth = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def kalman(self) -> KalmanFilter:
        """The wrapped filter."""
        return self._kalman

    @property
    def posterior(self) -> Optional[KalmanState]:
        """Latest posterior, or ``None`` before initialisation."""
        return self._posterior

    @property
    def is_initialized(self) -> bool:
        """Whether at least one sensor reading has been folded in."""
        return self._posterior is not None

    @property
    def replay_count(self) -> int:
        """How many message replays have been performed."""
        return self._replay_count

    @property
    def last_replay_depth(self) -> int:
        """Sensor readings re-applied by the most recent replay (0 if none)."""
        return self._last_replay_depth

    @property
    def current_accel(self) -> float:
        """The acceleration currently used for extrapolation."""
        return self._current_accel

    # ------------------------------------------------------------------
    # Sensor path
    # ------------------------------------------------------------------
    def on_sensor_reading(
        self, reading: SensorReading, gate: Optional[Gate] = None
    ) -> KalmanState:
        """Fold in one sensor reading at its measurement time.

        Effects: mutates-args

        The first reading initialises the filter with the measurement
        itself and the measurement covariance as prior.  Subsequent
        readings run predict (over the actual gap, using the previous
        measured acceleration) followed by update, on the states' fields;
        ``gate``, if given, sees the reading and the prediction's fields
        between the two.

        A reading with a non-finite field, or one that does not advance
        past the posterior, raises :class:`~repro.errors.FilterError`
        before any state changes.

        Returns the new posterior.
        """
        _check_reading(reading)
        posterior = self._posterior
        time = reading.time
        if posterior is None:
            bounds = self._kalman.bounds
            self._posterior = KalmanFilter.initial_state(
                time=time,
                position=reading.position,
                velocity=reading.velocity,
                position_var=bounds.position_variance,
                velocity_var=bounds.velocity_variance,
            )
        else:
            gap = time - posterior.time
            if gap <= 0.0:
                raise FilterError(
                    f"sensor readings must advance in time: got t={time}"
                    f" after t={posterior.time}"
                )
            kalman = self._kalman
            predicted = kalman.extrapolate_floats(
                posterior, self._current_accel, gap
            )
            if gate is not None:
                gate(reading, predicted)
            self._posterior = tuple.__new__(
                KalmanState,
                kalman.update_floats(predicted, reading.position, reading.velocity),
            )
        self._current_accel = reading.acceleration
        self._readings.append(reading)
        times = self._reading_times
        times.append(time)
        cutoff = time - self._horizon
        if times[0] < cutoff:
            self._prune(cutoff)
        return self._posterior

    # ------------------------------------------------------------------
    # Message path (the replay)
    # ------------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> Optional[KalmanState]:
        """Rewind to the message stamp and replay logged sensor updates.

        Units: now [s]

        Parameters
        ----------
        message:
            The delivered message; its stamp may lag ``now`` by the
            channel delay.
        now:
            Current simulation time (delivery time).

        Returns
        -------
        KalmanState or None
            The renewed posterior, or ``None`` when the message was
            ignored (older than an already-replayed message, or beyond
            the history horizon).
        """
        stamp = message.stamp
        if stamp <= self._last_replayed_stamp:
            return None
        if self._posterior is not None and (
            self._posterior.time - stamp > self._horizon
        ):
            return None
        if stamp > float(now) + 1e-9:
            raise ReplayError(
                f"message from the future: stamp={stamp} > now={now}"
            )

        kalman = self._kalman
        exact = kalman.exact_state(stamp, message.position, message.velocity)
        accel = message.acceleration

        # Replay every logged reading strictly after the stamp, in order,
        # on the states' fields; a KalmanState is built for the posterior.
        readings = self._readings
        extrapolate_floats = kalman.extrapolate_floats
        update_floats = kalman.update_floats
        first = bisect.bisect_right(self._reading_times, stamp + 1e-12)
        self._last_replay_depth = len(readings) - first
        state = exact
        time = exact.time
        for index in range(first, len(readings)):
            reading = readings[index]
            predicted = extrapolate_floats(state, accel, reading.time - time)
            state = update_floats(predicted, reading.position, reading.velocity)
            time = state[0]
            accel = reading.acceleration
        if state is not exact:
            state = tuple.__new__(KalmanState, state)

        self._posterior = state
        self._current_accel = accel
        self._last_replayed_stamp = stamp
        self._replay_count += 1
        return self._posterior

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate_at(self, now: float) -> KalmanState:
        """Extrapolate the posterior to ``now`` (between sensor samples).

        Units: now [s]

        :meth:`extrapolated` as a :class:`KalmanState`.

        Raises
        ------
        FilterError
            If the filter has no posterior yet or ``now`` precedes it.
        """
        extrapolated = self.extrapolated(now)
        if extrapolated is None:
            raise FilterError("filter not initialised: no sensor reading yet")
        fields = extrapolated[0]
        if fields is self._posterior:
            return fields
        return tuple.__new__(KalmanState, fields)

    def extrapolated(self, now: float) -> Optional[Tuple[Fields, float]]:
        """The posterior's fields extrapolated to ``now``, and the acceleration.

        Units: now [s]

        Returns the fields of :meth:`estimate_at`'s state (the posterior
        itself at its own time) and :attr:`current_accel`, the
        acceleration they were extrapolated with; ``None`` before the
        first reading or message.  The information filter's per-step
        estimate reads both from this one call.

        Raises
        ------
        FilterError
            If ``now`` precedes the posterior.
        """
        posterior = self._posterior
        if posterior is None:
            return None
        gap = float(now) - posterior.time
        if gap < -1e-9:
            raise FilterError(
                f"cannot estimate before the posterior: now={now} < "
                f"t={posterior.time}"
            )
        accel = self._current_accel
        # max(gap, 0.0) as a conditional.
        return (
            self._kalman.extrapolate_floats(
                posterior, accel, 0.0 if 0.0 > gap else gap
            ),
            accel,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prune(self, cutoff: float) -> None:
        """Drop readings older than ``cutoff``.

        Units: cutoff [s]
        """
        times = self._reading_times
        cut = bisect.bisect_left(times, cutoff)
        del times[:cut]
        del self._readings[:cut]
