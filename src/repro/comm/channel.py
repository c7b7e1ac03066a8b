"""The disturbed V2V channel.

A :class:`Channel` connects one broadcasting vehicle to the ego receiver.
Every ``dt_m`` seconds the simulation engine offers the sender's exact
state to the channel; the channel applies its fault pipeline (a
composable :class:`~repro.comm.faults.FaultModel`, of which the paper's
three settings are presets) and queues the surviving copies for delivery.
The receiver polls :meth:`Channel.receive` each control step and gets
every copy whose delivery time has passed, in delivery order.

Under jitter a later-sent message can be delivered before an earlier one
(out-of-order delivery), and under duplication one send produces several
deliveries; the channel counts both (:class:`ChannelStats`) and the
estimators are required to handle them (see
:mod:`repro.filtering.replay`).

The channel also keeps delivery statistics (:class:`ChannelStats`) used by
tests and by the experiment reports.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.comm.faults import (
    ComposedFaults,
    FaultModel,
    NoFault,
    Transform,
    bound_transform,
)
from repro.comm.message import Message
from repro.errors import ConfigurationError
from repro.obs.observer import resolve_observer
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = ["Channel", "ChannelStats"]


@dataclass
class ChannelStats:
    """Counters of what happened on a channel during a simulation.

    ``delivered`` counts delivered *copies* — under duplication it can
    exceed ``sent - dropped``.  The conservation invariant is

    ``in_flight = sent - dropped + duplicated - delivered >= 0``

    which tests assert under every fault model.
    """

    sent: int = 0
    dropped: int = 0
    delivered: int = 0
    #: Extra copies created by duplication faults (0 without them).
    duplicated: int = 0
    #: Deliveries whose stamp was older than an already-delivered stamp.
    out_of_order: int = 0
    #: Total delay accumulated over delivered messages (for the mean).
    total_delay: float = field(default=0.0, repr=False)

    @property
    def in_flight(self) -> int:
        """Copies accepted but not yet delivered (never negative)."""
        return self.sent - self.dropped + self.duplicated - self.delivered

    @property
    def drop_rate(self) -> float:
        """Fraction of sent messages that were dropped (0 if none sent)."""
        if self.sent == 0:
            return 0.0
        return self.dropped / self.sent

    @property
    def mean_delay(self) -> float:
        """Mean delivery delay over delivered copies (0 if none).

        Units: -> [s]
        """
        if self.delivered == 0:
            return 0.0
        return self.total_delay / self.delivered


class Channel:
    """Unidirectional message channel from one sender to the ego vehicle.

    Parameters
    ----------
    period:
        Transmission period ``dt_m``: the sender broadcasts at
        ``t = 0, dt_m, 2*dt_m, ...``.
    rng:
        Stream used for stochastic fault decisions.  Required whenever
        the effective fault model is stochastic.
    faults:
        Composable fault pipeline (see :mod:`repro.comm.faults`); the
        default delivers every message immediately.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; records per-stage
        drop/duplication counters and delivery-delay observations.
        Write-only — channel behaviour (including the RNG sequence) is
        bit-identical with or without it.
    name:
        Label attached to this channel's metrics (the engine passes
        ``veh<i>``).
    """

    def __init__(
        self,
        period: float,
        rng: Optional[RngStream] = None,
        faults: FaultModel = NoFault(),
        observer=None,
        name: str = "",
    ) -> None:
        """Bind the channel's configuration and fault processes.

        Effects: mutates-args, draws-rng
        """
        self._period = check_positive(period, "period")
        self._faults = faults
        if self._faults.is_stochastic and rng is None:
            raise ConfigurationError(
                "a Channel with a stochastic fault model requires an rng stream"
            )
        self._rng = rng
        self._obs = resolve_observer(observer)
        self._name = name
        # Per-stage transforms, bound once: iterating them with the
        # early-exit loop in send() consumes the RNG exactly like
        # _ComposedProcess.transform, so per-stage accounting never
        # perturbs the fault sequence.
        stages = (
            self._faults.stages
            if isinstance(self._faults, ComposedFaults)
            else (self._faults,)
        )
        self._stage_transforms: List[Tuple[str, Transform]] = [
            (type(stage).__name__, bound_transform(stage.start()))
            for stage in stages
        ]
        self._queue: List[Tuple[float, int, Message]] = []
        self._tiebreak = itertools.count()
        self._stats = ChannelStats()
        self._newest_delivered_stamp = float("-inf")

    @property
    def period(self) -> float:
        """Transmission period ``dt_m``.

        Units: -> [s]
        """
        return self._period

    @property
    def faults(self) -> FaultModel:
        """The channel's fault model."""
        return self._faults

    @property
    def stats(self) -> ChannelStats:
        """Delivery statistics accumulated so far."""
        return self._stats

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def is_transmission_time(self, time: float, tol: float = 1e-9) -> bool:
        """Whether ``time`` falls on the broadcast schedule.

        Units: time [s], tol [1]

        The engine drives the schedule by control-step index, so this is a
        convenience mainly for tests and standalone use.
        """
        ratio = time / self._period
        return abs(ratio - round(ratio)) <= tol * max(1.0, abs(ratio))

    def send(
        self,
        sender: int,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
    ) -> bool:
        """Offer the broadcast of ``sender``'s state stamped ``time``.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]

        Runs the fault pipeline on the message; every surviving copy is
        queued for delivery at ``time`` plus its (non-negative) delay
        offset.  Copies queued by the same or earlier sends always rank
        before later sends at equal delivery times (stable send-order
        tie-breaking).

        Returns
        -------
        bool
            ``True`` if at least one copy was accepted (will eventually
            be delivered), ``False`` if the message was dropped.
        """
        self._stats.sent += 1
        obs = self._obs
        rng = self._rng
        offsets: List[float] = [0.0]
        if obs.enabled:
            obs.count("channel.sent", channel=self._name)
            for label, transform in self._stage_transforms:
                before = len(offsets)
                offsets = transform(offsets, rng)
                after = len(offsets)
                if after < before:
                    obs.count(
                        "channel.stage_dropped",
                        before - after,
                        channel=self._name,
                        stage=label,
                    )
                elif after > before:
                    obs.count(
                        "channel.stage_duplicated",
                        after - before,
                        channel=self._name,
                        stage=label,
                    )
                if not offsets:
                    break
        else:
            for _, transform in self._stage_transforms:
                offsets = transform(offsets, rng)
                if not offsets:
                    break
        if not offsets:
            self._stats.dropped += 1
            if obs.enabled:
                obs.count("channel.dropped", channel=self._name)
            return False
        if len(offsets) > 1:
            self._stats.duplicated += len(offsets) - 1
            if obs.enabled:
                obs.count(
                    "channel.duplicated",
                    len(offsets) - 1,
                    channel=self._name,
                )
        time = float(time)
        message = Message.of(sender, time, position, velocity, acceleration)
        for offset in offsets:
            delivery_time = time + max(0.0, offset)
            heapq.heappush(
                self._queue, (delivery_time, next(self._tiebreak), message)
            )
        return True

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def receive(self, now: float) -> List[Message]:
        """Pop every copy whose delivery time is at or before ``now``.

        Units: now [s]

        Copies are returned in delivery order; at equal delivery times
        the send order breaks the tie (the heap entries carry a
        monotonically increasing send counter).  A returned message whose
        stamp is older than a previously returned stamp is counted in
        :attr:`ChannelStats.out_of_order`.
        """
        queue = self._queue
        due = float(now) + 1e-12
        if not queue or queue[0][0] > due:
            return []
        obs = self._obs
        delivered: List[Message] = []
        while queue and queue[0][0] <= due:
            delivery_time, _, message = heapq.heappop(queue)
            self._stats.delivered += 1
            self._stats.total_delay += delivery_time - message.stamp
            if obs.enabled:
                obs.count("channel.delivered", channel=self._name)
                obs.observe(
                    "channel.delay_seconds",
                    delivery_time - message.stamp,
                    channel=self._name,
                )
            if message.stamp < self._newest_delivered_stamp:
                self._stats.out_of_order += 1
                if obs.enabled:
                    obs.count("channel.out_of_order", channel=self._name)
            else:
                self._newest_delivered_stamp = message.stamp
            delivered.append(message)
        return delivered

    def peek_next_delivery(self) -> Optional[float]:
        """Delivery time of the next queued copy, or ``None``.

        Units: -> [s]
        """
        if not self._queue:
            return None
        return self._queue[0][0]
