"""Kalman filtering with message replay.

Section III-B of the paper extends the classical filter: "in each
transmission period the extrapolated state and covariance are stored in
the memory.  Then, every time a message recording the states of ``C_i`` at
time ``t_k`` arrives, they are restored, and the filter renews the
estimations from ``t_k`` to the current timestamp based on the message."

:class:`ReplayKalmanFilter` implements that design:

* at every sensing instant it stores the *prediction* checkpoint
  ``(x_hat(t, t - dt_s), P(t, t - dt_s))`` and the sensor reading itself,
  in append-only lists (readings must advance in time, so the lists stay
  sorted and old entries are cut from the front);
* when a (possibly delayed) message stamped ``t_k`` arrives, the filter
  rewinds to ``t_k``, replaces the estimate there with the message's exact
  state (zero covariance — message content is accurate in the paper's
  model), and replays every logged sensor update between ``t_k`` and the
  present, leaving a strictly better posterior.

Messages older than an already-replayed message are ignored (they carry no
new information and would only discard the better restart point).
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, List, Optional

from repro.comm.message import Message
from repro.errors import FilterError, ReplayError
from repro.filtering.kalman import KalmanFilter, KalmanState
from repro.sensing.sensor import SensorReading

__all__ = ["ReplayKalmanFilter"]

#: Checkpoint lookups match timestamps at microsecond resolution;
#: simulation times are sums of ``dt_c`` increments so this comfortably
#: absorbs float error.
_KEY_SCALE = 1e6

#: Called with a reading and the filter's prediction at its time, before
#: the update (the information filter's divergence watchdog).
Gate = Callable[[SensorReading, KalmanState], None]


def _key(time: float) -> int:
    return int(round(time * _KEY_SCALE))


def _check_reading(reading: SensorReading) -> None:
    """Reject a reading with a non-finite field before it touches any state."""
    if not (
        math.isfinite(reading.time)
        and math.isfinite(reading.position)
        and math.isfinite(reading.velocity)
        and math.isfinite(reading.acceleration)
    ):
        raise FilterError(f"non-finite sensor reading: {reading}")


class ReplayKalmanFilter:
    """A Kalman filter that can rewind and replay on message arrival.

    Parameters
    ----------
    kalman:
        The underlying constant-matrix filter.
    history_horizon:
        How far back (seconds) checkpoints and sensor readings are kept.
        Messages older than this cannot be replayed and are ignored; the
        horizon bounds memory for long simulations.
    """

    def __init__(self, kalman: KalmanFilter, history_horizon: float = 30.0) -> None:
        if history_horizon <= 0.0:
            raise FilterError(
                f"history_horizon must be > 0, got {history_horizon}"
            )
        self._kalman = kalman
        self._horizon = float(history_horizon)
        self._posterior: Optional[KalmanState] = None
        #: acceleration knowledge used to extrapolate past the posterior
        self._current_accel: float = 0.0
        #: Logged readings in time order, their times, and the prediction
        #: checkpoint at each (``None`` until the filter has predicted to
        #: that reading: the initialising one).
        self._readings: List[SensorReading] = []
        self._reading_times: List[float] = []
        self._checkpoints: List[Optional[KalmanState]] = []
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

    def checkpoint_at(self, time: float) -> Optional[KalmanState]:
        """The stored prediction checkpoint at ``time``, if any.

        Units: time [s]
        """
        key = _key(time)
        index = bisect.bisect_left(self._reading_times, key, key=_key)
        if index < len(self._reading_times) and _key(self._reading_times[index]) == key:
            return self._checkpoints[index]
        return None

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
        measured acceleration) followed by update; ``gate``, if given,
        sees the reading and that prediction between the two.

        A reading with a non-finite field, or one that does not advance
        past the posterior, raises :class:`~repro.errors.FilterError`
        before any state changes.

        Returns the new posterior.
        """
        _check_reading(reading)
        posterior = self._posterior
        if posterior is None:
            bounds = self._kalman.bounds
            self._posterior = KalmanFilter.initial_state(
                time=reading.time,
                position=reading.position,
                velocity=reading.velocity,
                position_var=bounds.position_variance,
                velocity_var=bounds.velocity_variance,
            )
            checkpoint = None
        else:
            gap = reading.time - posterior.time
            if gap <= 0.0:
                raise FilterError(
                    f"sensor readings must advance in time: got t={reading.time}"
                    f" after t={posterior.time}"
                )
            checkpoint = self._kalman.extrapolate(
                posterior, self._current_accel, gap
            )
            if gate is not None:
                gate(reading, checkpoint)
            self._posterior = self._kalman.update(
                checkpoint, reading.position, reading.velocity
            )
        self._current_accel = reading.acceleration
        self._readings.append(reading)
        self._reading_times.append(reading.time)
        self._checkpoints.append(checkpoint)
        self._prune(reading.time)
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

        exact = self._kalman.exact_state(
            stamp, message.state.position, message.state.velocity
        )
        state = exact
        accel = message.state.acceleration

        # Replay every logged reading strictly after the stamp, in order.
        readings = self._readings
        checkpoints = self._checkpoints
        extrapolate = self._kalman.extrapolate
        update = self._kalman.update
        first = bisect.bisect_right(self._reading_times, stamp + 1e-12)
        self._last_replay_depth = len(readings) - first
        for index in range(first, len(readings)):
            reading = readings[index]
            predicted = extrapolate(state, accel, reading.time - state.time)
            checkpoints[index] = predicted
            state = update(predicted, reading.position, reading.velocity)
            accel = reading.acceleration

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

        Raises
        ------
        FilterError
            If the filter has no posterior yet or ``now`` precedes it.
        """
        if self._posterior is None:
            raise FilterError("filter not initialised: no sensor reading yet")
        gap = float(now) - self._posterior.time
        if gap < -1e-9:
            raise FilterError(
                f"cannot estimate before the posterior: now={now} < "
                f"t={self._posterior.time}"
            )
        return self._kalman.extrapolate(
            self._posterior, self._current_accel, max(gap, 0.0)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prune(self, now: float) -> None:
        """Drop readings and checkpoints older than the history horizon."""
        cutoff = now - self._horizon
        times = self._reading_times
        if times[0] < cutoff:
            cut = bisect.bisect_left(times, cutoff)
            del times[:cut]
            del self._readings[:cut]
            del self._checkpoints[:cut]
