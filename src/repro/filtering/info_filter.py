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
inconsistent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, Tuple

from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import FilterError, IntervalError
from repro.filtering.fusion import FusedEstimate, join_or_fallback
from repro.filtering.kalman import KalmanFilter, KalmanState
from repro.filtering.reachability import ReachabilityAnalyzer
from repro.filtering.replay import ReplayKalmanFilter
from repro.obs.observer import resolve_observer
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from repro.utils.intervals import Interval, band_midpoint

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

_isnan = math.isnan


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


def _checked_box(
    box: Tuple[float, float, float, float], what: str
) -> Tuple[float, float, float, float]:
    """``box`` unchanged; raises :class:`IntervalError` if it holds a NaN."""
    p_lo, p_hi, v_lo, v_hi = box
    if _isnan(p_lo) or _isnan(p_hi) or _isnan(v_lo) or _isnan(v_hi):
        raise IntervalError(
            f"{what} band must not be NaN: p in [{p_lo}, {p_hi}], "
            f"v in [{v_lo}, {v_hi}]"
        )
    return box


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
    to the message band when the two are disjoint.  A band with
    ``lo > hi`` is empty; an empty message band raises
    :class:`FilterError` when the sensor band is joined to it.  A NaN
    reading raises :class:`IntervalError`.
    """
    band = None
    if message is not None:
        state = message.state
        band = _checked_box(
            reach.reach_box(
                state.position,
                state.position,
                state.velocity,
                state.velocity,
                message.stamp,
                now,
            ),
            "message",
        )
    if reading is not None:
        position = reading.position
        velocity = reading.velocity
        if _isnan(position) or _isnan(velocity):
            raise IntervalError(
                f"sensor reading must not be NaN: p={position}, v={velocity}"
            )
        limits = reach.limits
        delta_v = bounds.delta_v
        v_lo = max(velocity - delta_v, limits.v_min)
        v_hi = min(velocity + delta_v, limits.v_max)
        if v_lo > v_hi:
            # Measurement pushed entirely outside the physical range; clip
            # to the nearest physical velocity.
            v_lo = v_hi = limits.clip_velocity(velocity)
        delta_p = bounds.delta_p
        sensed = _checked_box(
            reach.reach_box(
                position - delta_p, position + delta_p, v_lo, v_hi, reading.time, now
            ),
            "sensor",
        )
        if band is None:
            band = sensed
        else:
            p_lo, p_hi = join_or_fallback(band[0], band[1], sensed[0], sensed[1])
            v_lo, v_hi = join_or_fallback(band[2], band[3], sensed[2], sensed[3])
            band = (p_lo, p_hi, v_lo, v_hi)
    if band is None:
        raise FilterError(
            "no information yet: neither a sensor reading nor a message "
            "has been ingested"
        )
    return band


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
        ``dt_s``; the Kalman filter's native step.
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
        consistent update recovers it.  Soundness never depended on the
        Kalman band (the fusion intersects it with the guaranteed band);
        the watchdog protects the *efficiency* claim from a silently
        diverged filter steering the nominal estimate.
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
        if n_sigma <= 0.0:
            raise FilterError(f"n_sigma must be > 0, got {n_sigma}")
        if watchdog_sigma is not None and watchdog_sigma <= 0.0:
            raise FilterError(
                f"watchdog_sigma must be > 0 or None, got {watchdog_sigma}"
            )
        if watchdog_consecutive < 1:
            raise FilterError(
                f"watchdog_consecutive must be >= 1, got {watchdog_consecutive}"
            )
        self._reach = ReachabilityAnalyzer(limits)
        self._replay = ReplayKalmanFilter(
            KalmanFilter(sensing_period, sensor_bounds),
            history_horizon=history_horizon,
        )
        self._bounds = sensor_bounds
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
    def _gate_innovation(
        self, reading: SensorReading, predicted: KalmanState
    ) -> None:
        """Classify one reading's innovation against ``predicted``; never raises.

        A breach means the measurement fell outside
        ``watchdog_sigma * sqrt(P + R)`` (per channel, plus a small
        absolute slack for noiseless setups) of the filter's own
        prediction — the filter believes an uncertainty its measurements
        contradict.  After ``watchdog_consecutive`` breaches in a row the
        filter trips; one consistent reading recovers it.
        """
        sigma = self._watchdog_sigma
        gate_p = sigma * math.sqrt(max(predicted.p00 + self._r_p, 0.0)) + _WATCHDOG_SLACK
        gate_v = sigma * math.sqrt(max(predicted.p11 + self._r_v, 0.0)) + _WATCHDOG_SLACK
        breach = (
            abs(reading.position - predicted.position) > gate_p
            or abs(reading.velocity - predicted.velocity) > gate_v
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
        simulation engine guarantees a sensor sample at ``t = 0``.
        """
        p_lo, p_hi, v_lo, v_hi = _guaranteed_band(
            self._reach, self._bounds, self._latest_message, self._latest_reading, now
        )
        message_age = (
            None
            if self._latest_message is None
            else float(now) - self._latest_message.stamp
        )

        if self._replay.is_initialized and not self._watchdog.diverged:
            kf = self._replay.estimate_at(now)
            kf_p = kf.position
            kf_v = kf.velocity
            half_p = self._n_sigma * math.sqrt(max(kf.p00, 0.0))
            half_v = self._n_sigma * math.sqrt(max(kf.p11, 0.0))
            p_lo, p_hi = join_or_fallback(p_lo, p_hi, kf_p - half_p, kf_p + half_p)
            v_lo, v_hi = join_or_fallback(v_lo, v_hi, kf_v - half_v, kf_v + half_v)
            position = Interval(p_lo, p_hi)
            velocity = Interval(v_lo, v_hi)
            # The Kalman mean clamped into the joined (non-empty) band.
            nominal = VehicleState(
                position=min(max(kf_p, position.lo), position.hi),
                velocity=min(max(kf_v, velocity.lo), velocity.hi),
                acceleration=self._replay.current_accel,
            )
        else:
            # Reachability-only: before the first sensor reading, or the
            # watchdog tripped and the Kalman band is quarantined.
            if self._obs.enabled:
                self._obs.count("filter.fallback", filter=self._label)
                if self._watchdog.diverged:
                    self._obs.instant(
                        "filter.fallback",
                        t=float(now),
                        cause="watchdog",
                        filter=self._label,
                    )
            if self._replay.is_initialized:
                accel = self._replay.current_accel
            elif self._latest_message is not None:
                accel = self._latest_message.state.acceleration
            else:
                accel = 0.0
            position = Interval(p_lo, p_hi)
            velocity = Interval(v_lo, v_hi)
            nominal = VehicleState(
                position=band_midpoint(position.lo, position.hi),
                velocity=band_midpoint(velocity.lo, velocity.hi),
                acceleration=accel,
            )
        if self._obs.enabled:
            p_width = position.width
            v_width = velocity.width
            if math.isfinite(p_width):
                self._obs.gauge(
                    "filter.position_width", p_width, filter=self._label
                )
                self._obs.observe(
                    "filter.position_width", p_width, filter=self._label
                )
            if math.isfinite(v_width):
                self._obs.gauge(
                    "filter.velocity_width", v_width, filter=self._label
                )
                self._obs.observe(
                    "filter.velocity_width", v_width, filter=self._label
                )
        return FusedEstimate(
            time=float(now),
            position=position,
            velocity=velocity,
            nominal=nominal,
            message_age=message_age,
        )


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
        p_lo, p_hi, v_lo, v_hi = _guaranteed_band(
            self._reach, self._bounds, self._latest_message, self._latest_reading, now
        )
        accel = 0.0
        accel_time = float("-inf")
        if self._latest_reading is not None:
            accel = self._latest_reading.acceleration
            accel_time = self._latest_reading.time
        if (
            self._latest_message is not None
            and self._latest_message.stamp > accel_time
        ):
            accel = self._latest_message.state.acceleration
        position = Interval(p_lo, p_hi)
        velocity = Interval(v_lo, v_hi)
        nominal = VehicleState(
            position=band_midpoint(position.lo, position.hi),
            velocity=band_midpoint(velocity.lo, velocity.hi),
            acceleration=accel,
        )
        message_age = (
            None
            if self._latest_message is None
            else float(now) - self._latest_message.stamp
        )
        return FusedEstimate(
            time=float(now),
            position=position,
            velocity=velocity,
            nominal=nominal,
            message_age=message_age,
        )
