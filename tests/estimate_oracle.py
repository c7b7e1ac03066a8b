"""Test-only oracle: the Interval/ReachBand estimate path the scalar one replaced.

This is the per-step estimate of ``repro.filtering`` as it stood before
the band join was rewritten on plain floats: Eq. (2) written as four
scalar extremal trajectories, every band an
:class:`~repro.utils.intervals.Interval`, the message/sensor/Kalman join
through :func:`intersect_or_fallback` and :func:`fuse_bands` on
:class:`ReachBand` objects.  It is kept unchanged as the slow
counterpart of the fast path; ``tests/test_estimate_oracle.py`` checks
the two against each other band by band and episode by episode.

:func:`information_filter_estimate` and :func:`raw_estimate` have the
signature of ``InformationFilter.estimate`` / ``RawEstimator.estimate``
and read the estimator's ingested state, so they can be patched onto
the classes to run whole episodes on the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError, FilterError
from repro.filtering.fusion import FusedEstimate
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from repro.utils.intervals import Interval

__all__ = [
    "ReachBand",
    "ReachabilityAnalyzer",
    "fuse_bands",
    "guaranteed_band",
    "information_filter_estimate",
    "intersect_or_fallback",
    "raw_estimate",
]


@dataclass(frozen=True, slots=True)
class ReachBand:
    """Reachable position/velocity intervals of a vehicle at one time."""

    time: float
    position: Interval
    velocity: Interval


class ReachabilityAnalyzer:
    """Eq. (2) as four scalar extremal trajectories."""

    def __init__(self, limits: VehicleLimits) -> None:
        self._limits = limits

    @property
    def limits(self) -> VehicleLimits:
        return self._limits

    def max_position(self, position: float, velocity: float, elapsed: float) -> float:
        return self._extremal_position(
            position, velocity, elapsed, self._limits.a_max, self._limits.v_max
        )

    def min_position(self, position: float, velocity: float, elapsed: float) -> float:
        return self._extremal_position(
            position, velocity, elapsed, self._limits.a_min, self._limits.v_min
        )

    def max_velocity(self, velocity: float, elapsed: float) -> float:
        self._check_elapsed(elapsed)
        v0 = self._limits.clip_velocity(velocity)
        return min(v0 + self._limits.a_max * elapsed, self._limits.v_max)

    def min_velocity(self, velocity: float, elapsed: float) -> float:
        self._check_elapsed(elapsed)
        v0 = self._limits.clip_velocity(velocity)
        return max(v0 + self._limits.a_min * elapsed, self._limits.v_min)

    def _extremal_position(
        self,
        position: float,
        velocity: float,
        elapsed: float,
        accel: float,
        v_cap: float,
    ) -> float:
        self._check_elapsed(elapsed)
        v0 = self._limits.clip_velocity(velocity)
        if elapsed == 0.0:
            return position
        v_end = v0 + accel * elapsed
        toward_cap = (accel > 0.0 and v_end > v_cap) or (
            accel < 0.0 and v_end < v_cap
        )
        if accel == 0.0 or not toward_cap:
            return position + v0 * elapsed + 0.5 * accel * elapsed * elapsed
        return position + v_cap * elapsed - (v_cap - v0) ** 2 / (2.0 * accel)

    def band_from_state(self, state: VehicleState, stamp: float, now: float) -> ReachBand:
        elapsed = self._elapsed(stamp, now)
        return ReachBand(
            time=float(now),
            position=Interval(
                self.min_position(state.position, state.velocity, elapsed),
                self.max_position(state.position, state.velocity, elapsed),
            ),
            velocity=Interval(
                self.min_velocity(state.velocity, elapsed),
                self.max_velocity(state.velocity, elapsed),
            ),
        )

    def band_from_intervals(
        self,
        position: Interval,
        velocity: Interval,
        stamp: float,
        now: float,
    ) -> ReachBand:
        if position.is_empty or velocity.is_empty:
            raise ConfigurationError("cannot propagate an empty initial band")
        elapsed = self._elapsed(stamp, now)
        p_hi = self.max_position(position.hi, velocity.hi, elapsed)
        p_lo = self.min_position(position.lo, velocity.lo, elapsed)
        return ReachBand(
            time=float(now),
            position=Interval(p_lo, p_hi),
            velocity=Interval(
                self.min_velocity(velocity.lo, elapsed),
                self.max_velocity(velocity.hi, elapsed),
            ),
        )

    @staticmethod
    def _elapsed(stamp: float, now: float) -> float:
        elapsed = float(now) - float(stamp)
        if elapsed < -1e-12:
            raise ConfigurationError(
                f"reachability queried before the stamp: now={now} < stamp={stamp}"
            )
        return max(elapsed, 0.0)

    @staticmethod
    def _check_elapsed(elapsed: float) -> None:
        if elapsed < 0.0:
            raise ConfigurationError(f"elapsed time must be >= 0, got {elapsed}")


def intersect_or_fallback(sound: Interval, refining: Interval) -> Interval:
    """The intersection when non-empty, otherwise the guaranteed band."""
    if sound.is_empty:
        raise FilterError("the guaranteed band must be non-empty")
    joined = sound.intersect(refining)
    if joined.is_empty:
        return sound
    return joined


def fuse_bands(
    reach: ReachBand, kf_position: Interval, kf_velocity: Interval
) -> ReachBand:
    """Join a reachability band with Kalman confidence bands."""
    return ReachBand(
        time=reach.time,
        position=intersect_or_fallback(reach.position, kf_position),
        velocity=intersect_or_fallback(reach.velocity, kf_velocity),
    )


def guaranteed_band(
    reach: ReachabilityAnalyzer,
    bounds: NoiseBounds,
    message: Optional[Message],
    reading: Optional[SensorReading],
    now: float,
) -> ReachBand:
    """Message reachability band refined by the propagated raw sensor band."""
    band = None
    if message is not None:
        band = reach.band_from_state(message.state, message.stamp, now)
    if reading is not None:
        limits = reach.limits
        p_band = bounds.position_band(reading.position)
        v_band = bounds.velocity_band(reading.velocity).intersect(
            Interval(limits.v_min, limits.v_max)
        )
        if v_band.is_empty:
            v_band = Interval.point(limits.clip_velocity(reading.velocity))
        sensed = reach.band_from_intervals(p_band, v_band, reading.time, now)
        if band is None:
            band = sensed
        else:
            band = ReachBand(
                time=band.time,
                position=intersect_or_fallback(band.position, sensed.position),
                velocity=intersect_or_fallback(band.velocity, sensed.velocity),
            )
    if band is None:
        raise FilterError(
            "no information yet: neither a sensor reading nor a message "
            "has been ingested"
        )
    return band


def information_filter_estimate(self, now: float) -> FusedEstimate:
    """``InformationFilter.estimate`` on the oracle path (telemetry omitted)."""
    reach = ReachabilityAnalyzer(self._reach.limits)
    guaranteed = guaranteed_band(
        reach, self._bounds, self._latest_message, self._latest_reading, now
    )
    message_age = (
        None
        if self._latest_message is None
        else float(now) - self._latest_message.stamp
    )
    replay = self._replay
    if replay.is_initialized and not self._watchdog.diverged:
        kf = replay.estimate_at(now)
        fused = fuse_bands(
            guaranteed,
            kf.position_band(self._n_sigma),
            kf.velocity_band(self._n_sigma),
        )
        nominal = VehicleState(
            position=fused.position.clamp(kf.position),
            velocity=fused.velocity.clamp(kf.velocity),
            acceleration=replay.current_accel,
        )
    else:
        fused = guaranteed
        if replay.is_initialized:
            accel = replay.current_accel
        elif self._latest_message is not None:
            accel = self._latest_message.state.acceleration
        else:
            accel = 0.0
        nominal = VehicleState(
            position=fused.position.midpoint,
            velocity=fused.velocity.midpoint,
            acceleration=accel,
        )
    return FusedEstimate(
        time=float(now),
        position=fused.position,
        velocity=fused.velocity,
        nominal=nominal,
        message_age=message_age,
    )


def raw_estimate(self, now: float) -> FusedEstimate:
    """``RawEstimator.estimate`` on the oracle path."""
    reach = ReachabilityAnalyzer(self._reach.limits)
    fused = guaranteed_band(
        reach, self._bounds, self._latest_message, self._latest_reading, now
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
    nominal = VehicleState(
        position=fused.position.midpoint,
        velocity=fused.velocity.midpoint,
        acceleration=accel,
    )
    message_age = (
        None
        if self._latest_message is None
        else float(now) - self._latest_message.stamp
    )
    return FusedEstimate(
        time=float(now),
        position=fused.position,
        velocity=fused.velocity,
        nominal=nominal,
        message_age=message_age,
    )
