"""Estimate providers: the information filter and the raw estimator.

The runtime monitor (and through it the planners) consume a
:class:`~repro.filtering.fusion.FusedEstimate` of every other vehicle each
control step.  Two providers implement the common
:class:`EstimateProvider` protocol:

* :class:`InformationFilter` — the paper's full design (Section III-B):
  a replaying Kalman filter over sensor readings, reachability analysis
  over the latest message, and interval-intersection fusion.  This is what
  the *ultimate* compound planner uses.
* :class:`RawEstimator` — no filtering: reachability over the latest raw
  message and the raw sensor band (measurement ± uniform bound) propagated
  by reachability, intersected.  This is the information available to the
  *basic* compound planner, and it is strictly wider, which is exactly why
  the basic planner is slower in Tables I/II.

Both providers produce sound position/velocity bands (up to the Kalman
confidence level for the information filter, whose band is intersected
with the guaranteed reachability band and falls back to it when
inconsistent, or once the newest reading is one sensing period old).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, Tuple

from repro.comm.message import Message
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import FilterError, IntervalError
from repro.filtering.fusion import FusedEstimate, join_or_fallback
from repro.filtering.kalman import Fields, KalmanFilter
from repro.filtering.reachability import ReachabilityAnalyzer
from repro.filtering.replay import ReplayKalmanFilter
from repro.obs.observer import resolve_observer
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from repro.utils.intervals import band_midpoint
from repro.utils.validation import check_positive

__all__ = [
    "EstimateProvider",
    "InformationFilter",
    "RawEstimator",
    "WatchdogStats",
]

#: Absolute innovation slack added to the watchdog gate so noiseless
#: setups (R = 0, zero covariance, exact measurements) never trip on
#: pure float roundoff.
_WATCHDOG_SLACK = 1e-6

_INF = math.inf

#: A reading counts as fresh while it is younger than one sensing period
#: by more than this: float stamps one period apart differ by a period
#: rounded either way, and that reading is stale.
_STALE_TOLERANCE = 1e-9


@dataclass
class WatchdogStats:
    """Divergence-watchdog counters of one :class:`InformationFilter`.

    Attributes
    ----------
    breaches:
        Sensor updates whose innovation exceeded the N-sigma gate.
    consecutive:
        Current run of consecutive breaching updates (resets on the
        first consistent update).
    trips:
        Times the run reached the trip threshold and the filter fell
        back to the reachability-only band.
    recoveries:
        Times a consistent update ended a tripped state.
    diverged:
        Whether the fallback is currently engaged.
    """

    breaches: int = 0
    consecutive: int = 0
    trips: int = 0
    recoveries: int = 0
    diverged: bool = False


class EstimateProvider(Protocol):
    """What the runtime monitor needs from an estimator of one vehicle."""

    def on_sensor_reading(self, reading: SensorReading) -> None:
        """Ingest a new sensor reading (delay-free, noisy)."""
        ...

    def on_message(self, message: Message, now: float) -> None:
        """Ingest a delivered message (exact content, possibly stale).

        Units: now [s]
        """
        ...

    def estimate(self, now: float) -> FusedEstimate:
        """Produce the fused estimate of the observed vehicle at ``now``.

        Units: now [s]
        """
        ...


def _nan_band(
    what: str, p_lo: float, p_hi: float, v_lo: float, v_hi: float
) -> IntervalError:
    """The error for a band holding a NaN.

    Units: p_lo [m], p_hi [m], v_lo [m/s], v_hi [m/s]
    """
    return IntervalError(
        f"{what} band must not be NaN: p in [{p_lo}, {p_hi}], "
        f"v in [{v_lo}, {v_hi}]"
    )


def _guaranteed_band(
    reach: ReachabilityAnalyzer,
    bounds: NoiseBounds,
    message: Optional[Message],
    reading: Optional[SensorReading],
    now: float,
) -> Tuple[float, float, float, float]:
    """Sound ``(p_lo, p_hi, v_lo, v_hi)`` at ``now`` from message and sensor.

    Units: now [s]

    The newest message's exact state is propagated by reachability; the
    newest reading's measurement band (velocity clipped to the physical
    range) is propagated from its sample time.  Where both exist the
    sensor band refines the message band by intersection, falling back
    to the message band when the two are disjoint
    (:func:`~repro.filtering.fusion.join_or_fallback`).  A band with
    ``lo > hi`` is empty; an empty message band raises
    :class:`FilterError` when the sensor band is joined to it.  A NaN in
    either band, or in the reading, raises :class:`IntervalError`.

    NaN fails every comparison and infinities pass ``x <= inf``, which
    is how the NaN tests below read.
    """
    if message is not None:
        position = message.position
        velocity = message.velocity
        p_lo, p_hi, v_lo, v_hi = reach.reach_box(
            position, position, velocity, velocity, message.stamp, now
        )
        if not (p_lo <= _INF and p_hi <= _INF and v_lo <= _INF and v_hi <= _INF):
            raise _nan_band("message", p_lo, p_hi, v_lo, v_hi)
        if reading is None:
            return p_lo, p_hi, v_lo, v_hi
    elif reading is None:
        raise FilterError(
            "no information yet: neither a sensor reading nor a message "
            "has been ingested"
        )
    position = reading.position
    velocity = reading.velocity
    if not (position <= _INF and velocity <= _INF):
        raise IntervalError(
            f"sensor reading must not be NaN: p={position}, v={velocity}"
        )
    limits = reach.limits
    delta_v = bounds.delta_v
    # max(velocity - delta_v, v_min) and min(velocity + delta_v, v_max).
    r_lo = velocity - delta_v
    r_hi = velocity + delta_v
    r_lo = limits.v_min if limits.v_min > r_lo else r_lo
    r_hi = limits.v_max if limits.v_max < r_hi else r_hi
    if r_lo > r_hi:
        # Measurement pushed entirely outside the physical range; clip
        # to the nearest physical velocity.
        r_lo = r_hi = limits.clip_velocity(velocity)
    delta_p = bounds.delta_p
    s_p_lo, s_p_hi, s_v_lo, s_v_hi = reach.reach_box(
        position - delta_p, position + delta_p, r_lo, r_hi, reading.time, now
    )
    if not (
        s_p_lo <= _INF and s_p_hi <= _INF and s_v_lo <= _INF and s_v_hi <= _INF
    ):
        raise _nan_band("sensor", s_p_lo, s_p_hi, s_v_lo, s_v_hi)
    if message is None:
        return s_p_lo, s_p_hi, s_v_lo, s_v_hi
    p_lo, p_hi = join_or_fallback(p_lo, p_hi, s_p_lo, s_p_hi)
    v_lo, v_hi = join_or_fallback(v_lo, v_hi, s_v_lo, s_v_hi)
    return p_lo, p_hi, v_lo, v_hi


class InformationFilter:
    """The paper's information filter for one remote vehicle.

    Parameters
    ----------
    limits:
        True physical limits of the observed vehicle (used by the
        reachability analysis; must not be under-estimated or soundness is
        lost).
    sensor_bounds:
        Noise bounds of the ego's sensor; fix the Kalman matrices.
    sensing_period:
        ``dt_s``; the Kalman filter's native step, and the reading age
        from which :meth:`estimate` leaves the Kalman band out.
    n_sigma:
        Half-width of the Kalman confidence band in standard deviations
        (3 by default).
    history_horizon:
        Replay memory horizon passed to :class:`ReplayKalmanFilter`.
    watchdog_sigma:
        Divergence gate: an innovation beyond ``watchdog_sigma`` standard
        deviations of the innovation covariance counts as a breach.
        ``None`` disables the watchdog.  The default (6) is deliberately
        far outside the fusion band's 3-sigma, so a healthy filter under
        nominal noise essentially never breaches.
    watchdog_consecutive:
        Consecutive breaching updates before the filter *trips*: its
        Kalman band is considered untrustworthy and :meth:`estimate`
        falls back to the guaranteed reachability-only band until a
        consistent update recovers it.  The fused band is sound only up
        to the Kalman confidence level either way (the fusion narrows
        the guaranteed band with the Kalman one); the watchdog protects
        the *efficiency* claim from a silently diverged filter steering
        the nominal estimate.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; records replay
        depth, watchdog breaches/trips/recoveries, fused band widths,
        and reachability-fallback events.  Write-only — estimates are
        bit-identical with or without it.
    label:
        Label attached to this filter's metrics (the estimator factory
        passes ``veh<i>``).
    """

    def __init__(
        self,
        limits: VehicleLimits,
        sensor_bounds: NoiseBounds,
        sensing_period: float,
        n_sigma: float = 3.0,
        history_horizon: float = 30.0,
        watchdog_sigma: Optional[float] = 6.0,
        watchdog_consecutive: int = 3,
        observer=None,
        label: str = "",
    ) -> None:
        # ``not x > 0`` rather than ``x <= 0``, so NaN is rejected too.
        if not n_sigma > 0.0:
            raise FilterError(f"n_sigma must be > 0, got {n_sigma}")
        if watchdog_sigma is not None and not watchdog_sigma > 0.0:
            raise FilterError(
                f"watchdog_sigma must be > 0 or None, got {watchdog_sigma}"
            )
        if watchdog_consecutive < 1:
            raise FilterError(
                f"watchdog_consecutive must be >= 1, got {watchdog_consecutive}"
            )
        self._reach = ReachabilityAnalyzer(limits)
        self._sensing_period = check_positive(sensing_period, "sensing_period")
        self._replay = ReplayKalmanFilter(
            KalmanFilter(sensor_bounds), history_horizon=history_horizon
        )
        self._bounds = sensor_bounds
        #: Reading age from which the Kalman band is left out.
        self._stale_age = self._sensing_period - _STALE_TOLERANCE
        #: Diagonal of R, read by the watchdog gate.
        self._r_p = sensor_bounds.position_variance
        self._r_v = sensor_bounds.velocity_variance
        self._n_sigma = float(n_sigma)
        self._watchdog_sigma = (
            None if watchdog_sigma is None else float(watchdog_sigma)
        )
        self._watchdog_consecutive = int(watchdog_consecutive)
        self._watchdog = WatchdogStats()
        self._obs = resolve_observer(observer)
        self._label = label
        self._latest_message: Optional[Message] = None
        self._latest_reading: Optional[SensorReading] = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def on_sensor_reading(self, reading: SensorReading) -> None:
        """Feed a sensor reading to the replaying Kalman filter.

        The divergence watchdog gates the reading's innovation against
        the filter's own prediction *before* the update, sharing that
        prediction with it; the reading is always folded in regardless
        (the filter keeps running), the gate only decides whether
        :meth:`estimate` still trusts the Kalman band.  A reading the
        replay filter rejects (non-finite, or not advancing in time)
        raises before the watchdog or any other state changes.
        """
        gate = None if self._watchdog_sigma is None else self._gate_innovation
        if self._obs.enabled:
            before = (
                self._watchdog.breaches,
                self._watchdog.trips,
                self._watchdog.recoveries,
            )
            self._replay.on_sensor_reading(reading, gate)
            self._observe_watchdog(before, reading.time)
        else:
            self._replay.on_sensor_reading(reading, gate)
        self._latest_reading = reading

    def _observe_watchdog(self, before, time: float) -> None:
        """Emit watchdog deltas of one gated reading (telemetry only)."""
        obs = self._obs
        stats = self._watchdog
        if stats.breaches > before[0]:
            obs.count("filter.watchdog.breaches", filter=self._label)
        if stats.trips > before[1]:
            obs.instant("filter.watchdog.trip", t=time, filter=self._label)
            obs.count("filter.watchdog.trips", filter=self._label)
        if stats.recoveries > before[2]:
            obs.instant("filter.watchdog.recovery", t=time, filter=self._label)
            obs.count("filter.watchdog.recoveries", filter=self._label)

    def on_message(self, message: Message, now: float) -> None:
        """Feed a delivered message: replay the filter and keep the stamp.

        Units: now [s]
        """
        renewed = self._replay.on_message(message, now)
        if self._obs.enabled and renewed is not None:
            depth = self._replay.last_replay_depth
            self._obs.instant(
                "filter.replay",
                t=float(now),
                stamp=message.stamp,
                depth=depth,
                filter=self._label,
            )
            self._obs.count("filter.replays", filter=self._label)
            self._obs.observe(
                "filter.replay_depth", float(depth), filter=self._label
            )
        if (
            self._latest_message is None
            or message.stamp > self._latest_message.stamp
        ):
            self._latest_message = message

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def replay_filter(self) -> ReplayKalmanFilter:
        """The underlying replaying Kalman filter."""
        return self._replay

    @property
    def latest_message(self) -> Optional[Message]:
        """Newest message received so far, if any."""
        return self._latest_message

    @property
    def reachability(self) -> ReachabilityAnalyzer:
        """The reachability analyzer (true physical limits)."""
        return self._reach

    @property
    def watchdog(self) -> WatchdogStats:
        """Divergence-watchdog counters (live object, updated in place)."""
        return self._watchdog

    # ------------------------------------------------------------------
    # Divergence watchdog
    # ------------------------------------------------------------------
    def _gate_innovation(self, reading: SensorReading, predicted: Fields) -> None:
        """Classify one reading's innovation against ``predicted``; never raises.

        ``predicted`` holds the fields of the filter's prediction at the
        reading's time, in :class:`~repro.filtering.kalman.KalmanState`
        order.

        A breach means the measurement fell outside
        ``watchdog_sigma * sqrt(P + R)`` (per channel, plus a small
        absolute slack for noiseless setups) of the filter's own
        prediction — the filter believes an uncertainty its measurements
        contradict.  After ``watchdog_consecutive`` breaches in a row the
        filter trips; one consistent reading recovers it.
        """
        sigma = self._watchdog_sigma
        _, position, velocity, p00, _, p11 = predicted
        # sqrt(max(var, 0.0)) of each innovation variance, the max as a
        # conditional.
        s_p = p00 + self._r_p
        s_v = p11 + self._r_v
        gate_p = sigma * math.sqrt(0.0 if 0.0 > s_p else s_p) + _WATCHDOG_SLACK
        gate_v = sigma * math.sqrt(0.0 if 0.0 > s_v else s_v) + _WATCHDOG_SLACK
        breach = (
            abs(reading.position - position) > gate_p
            or abs(reading.velocity - velocity) > gate_v
        )
        stats = self._watchdog
        if breach:
            stats.breaches += 1
            stats.consecutive += 1
            if (
                not stats.diverged
                and stats.consecutive >= self._watchdog_consecutive
            ):
                stats.diverged = True
                stats.trips += 1
        else:
            if stats.diverged:
                stats.diverged = False
                stats.recoveries += 1
            stats.consecutive = 0

    # ------------------------------------------------------------------
    # Estimate
    # ------------------------------------------------------------------
    def estimate(self, now: float) -> FusedEstimate:
        """Fused estimate at ``now`` (Section III-B join).

        Units: now [s]

        Requires at least one sensor reading or one message; the
        simulation engine guarantees a sensor sample at ``t = 0``.  The
        Kalman band is intersected only while the newest reading is
        younger than one sensing period (in normal operation by at least
        one control step); a reading one period old, to within 1e-9 s, is
        stale.
        """
        message = self._latest_message
        p_lo, p_hi, v_lo, v_hi = _guaranteed_band(
            self._reach, self._bounds, message, self._latest_reading, now
        )
        now = float(now)
        message_age = None if message is None else now - message.stamp

        replay = self._replay
        reading = self._latest_reading
        kalman = None
        if (
            not self._watchdog.diverged
            and reading is not None
            and now - reading.time < self._stale_age
        ):
            # None before the replay filter's first reading or message.
            kalman = replay.extrapolated(now)
        if kalman is not None:
            (_, kf_p, kf_v, p00, _, p11), a = kalman
            # sqrt(max(var, 0.0)), the max as a conditional.
            half_p = self._n_sigma * math.sqrt(0.0 if 0.0 > p00 else p00)
            half_v = self._n_sigma * math.sqrt(0.0 if 0.0 > p11 else p11)
            p_lo, p_hi = join_or_fallback(p_lo, p_hi, kf_p - half_p, kf_p + half_p)
            v_lo, v_hi = join_or_fallback(v_lo, v_hi, kf_v - half_v, kf_v + half_v)
            # The Kalman mean clamped into the joined (non-empty) band.
            p = p_lo if p_lo > kf_p else kf_p
            p = p_hi if p_hi < p else p
            v = v_lo if v_lo > kf_v else kf_v
            v = v_hi if v_hi < v else v
        else:
            # Reachability-only: before the first sensor reading, once
            # the newest reading is one sensing period old (a
            # dropout: a long prediction can exclude the truth), or the
            # watchdog tripped and the Kalman band is quarantined.
            if self._obs.enabled:
                self._obs.count("filter.fallback", filter=self._label)
                if self._watchdog.diverged:
                    self._obs.instant(
                        "filter.fallback",
                        t=now,
                        cause="watchdog",
                        filter=self._label,
                    )
            if replay.is_initialized:
                a = replay.current_accel
            elif message is not None:
                a = message.acceleration
            else:
                a = 0.0
            p = band_midpoint(p_lo, p_hi)
            v = band_midpoint(v_lo, v_hi)
        if self._obs.enabled:
            self._observe_widths(p_hi - p_lo, v_hi - v_lo)
        return FusedEstimate.of(
            now, p_lo, p_hi, v_lo, v_hi, p=p, v=v, a=a, message_age=message_age
        )

    def _observe_widths(self, p_width: float, v_width: float) -> None:
        """Emit the fused band widths (telemetry only).

        Units: p_width [m], v_width [m/s]
        """
        obs = self._obs
        if math.isfinite(p_width):
            obs.gauge("filter.position_width", p_width, filter=self._label)
            obs.observe("filter.position_width", p_width, filter=self._label)
        if math.isfinite(v_width):
            obs.gauge("filter.velocity_width", v_width, filter=self._label)
            obs.observe("filter.velocity_width", v_width, filter=self._label)


class RawEstimator:
    """Unfiltered estimates: what the *basic* compound planner sees.

    Maintains only the latest message and the latest sensor reading and
    combines their propagated bands by intersection.  No Kalman smoothing,
    no replay — the resulting band is systematically wider than the
    information filter's, reproducing the efficiency gap between the basic
    and ultimate compound planners.
    """

    def __init__(
        self,
        limits: VehicleLimits,
        sensor_bounds: NoiseBounds,
    ) -> None:
        self._reach = ReachabilityAnalyzer(limits)
        self._bounds = sensor_bounds
        self._latest_message: Optional[Message] = None
        self._latest_reading: Optional[SensorReading] = None

    def on_sensor_reading(self, reading: SensorReading) -> None:
        """Keep the newest sensor reading."""
        self._latest_reading = reading

    def on_message(self, message: Message, now: float) -> None:
        """Keep the newest message by stamp (delivery order may differ).

        Units: now [s]
        """
        if (
            self._latest_message is None
            or message.stamp > self._latest_message.stamp
        ):
            self._latest_message = message

    @property
    def latest_message(self) -> Optional[Message]:
        """Newest message received so far, if any."""
        return self._latest_message

    def estimate(self, now: float) -> FusedEstimate:
        """Intersection of propagated message and raw sensor bands.

        Units: now [s]
        """
        message = self._latest_message
        reading = self._latest_reading
        p_lo, p_hi, v_lo, v_hi = _guaranteed_band(
            self._reach, self._bounds, message, reading, now
        )
        a = 0.0
        accel_time = -_INF
        if reading is not None:
            a = reading.acceleration
            accel_time = reading.time
        if message is not None and message.stamp > accel_time:
            a = message.acceleration
        now = float(now)
        return FusedEstimate.of(
            now,
            p_lo,
            p_hi,
            v_lo,
            v_hi,
            p=band_midpoint(p_lo, p_hi),
            v=band_midpoint(v_lo, v_hi),
            a=a,
            message_age=None if message is None else now - message.stamp,
        )
