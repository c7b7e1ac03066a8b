"""Composable channel fault models and the paper's three presets.

The paper evaluates three communication settings, each an independent
drop followed by a fixed delay (:func:`no_disturbance`,
:func:`messages_delayed`, :func:`messages_lost` at the end of this
module), but real V2V channels misbehave in richer ways: losses arrive
in *bursts* (fading), delays *jitter* (queueing), jitter induces
*out-of-order* delivery, and link retransmission produces
*duplicates*.  This module models each of those as a small immutable
:class:`FaultModel` and lets them be stacked with :func:`compose`, so a
channel condition is written declaratively::

    faults = compose(
        GilbertElliottLoss(p_enter_burst=0.05, p_exit_burst=0.4),
        FixedDelay(0.25),
        UniformJitter(0.0, 0.3),       # reorders messages
        Duplication(probability=0.1),
    )
    channel = Channel(period=0.1, faults=faults, rng=stream)

A model is an immutable *specification*; per-channel mutable state (the
Gilbert–Elliott channel state, for example) lives in the
:class:`FaultProcess` created by :meth:`FaultModel.start`, so one model
instance can be shared by many seeded channels and simulations.

Every fault process consumes randomness only from the
:class:`~repro.utils.rng.RngStream` handed to it per message, which keeps
whole batches bit-reproducible: the same seed always produces the same
losses, delays and duplicates.

Semantics
---------

A process transforms a list of *delay offsets* — one entry per copy of
the message that is still alive, ``[0.0]`` initially:

* loss models remove copies (an empty list means the message is dropped);
* delay/jitter models add to each copy's offset;
* duplication models append extra copies.

Stages composed with :func:`compose` apply in order, so
``compose(loss, delay, duplication)`` duplicates only messages that
survived the loss stage, and each duplicate inherits the delay drawn
before it.  Negative total offsets (possible when composing a negative
Gaussian jitter mean with a small fixed delay) are clamped to zero by
the channel: a message is never delivered before it was sent.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.utils.rng import RngStream
from repro.utils.validation import (
    check_finite,
    check_nonnegative,
    check_probability,
    check_range,
)

__all__ = [
    "FaultModel",
    "FaultProcess",
    "NoFault",
    "IndependentLoss",
    "GilbertElliottLoss",
    "FixedDelay",
    "UniformJitter",
    "GaussianJitter",
    "Duplication",
    "ComposedFaults",
    "Transform",
    "bound_transform",
    "compose",
    "no_disturbance",
    "messages_delayed",
    "messages_lost",
]


#: A stage's per-message map of delay offsets (:meth:`FaultProcess.transform`).
Transform = Callable[[List[float], Optional[RngStream]], List[float]]


class FaultProcess(ABC):
    """Mutable per-channel instantiation of one fault model."""

    @abstractmethod
    def transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        """Map the live copies' delay offsets for one message.

        Units: -> [s]

        ``offsets`` holds one delay offset per surviving copy of the
        message (``[0.0]`` when the message enters the pipeline); the
        returned list is the stage's output.  An empty list drops the
        message.  ``rng`` is ``None`` only for deterministic models.
        """


class FaultModel(ABC):
    """Immutable specification of one channel fault mechanism."""

    @property
    @abstractmethod
    def is_stochastic(self) -> bool:
        """Whether the model draws randomness (and so requires an rng)."""

    @abstractmethod
    def start(self) -> FaultProcess:
        """Create a fresh per-channel process (fresh mutable state)."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable one-line description (used in reports)."""


# ---------------------------------------------------------------------------
# Stateless stages share one process class.
# ---------------------------------------------------------------------------
class _StatelessProcess(FaultProcess):
    """Process wrapper for models whose transform needs no state."""

    def __init__(self, model: "FaultModel") -> None:
        self._model = model

    def transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        """Delegate to the model's pure per-message transform.

        Units: -> [s]
        Effects: draws-rng
        """
        return self._model._transform(offsets, rng)  # type: ignore[attr-defined]


def bound_transform(process: FaultProcess) -> Transform:
    """``process.transform``, or a stateless stage's model transform itself.

    A caller that sends many messages binds each stage once with this
    and skips :class:`_StatelessProcess`'s delegation on every message.
    """
    if isinstance(process, _StatelessProcess):
        return process._model._transform  # type: ignore[attr-defined]
    return process.transform


@dataclass(frozen=True)
class NoFault(FaultModel):
    """The identity model: every message is delivered once, immediately."""

    @property
    def is_stochastic(self) -> bool:
        """Never draws randomness."""
        return False

    def start(self) -> FaultProcess:
        """Create the (stateless) identity process."""
        return _StatelessProcess(self)

    def _transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        return offsets

    def describe(self) -> str:
        """One-line description."""
        return "no fault"


@dataclass(frozen=True)
class IndependentLoss(FaultModel):
    """Independent per-copy loss with a fixed probability.

    ``IndependentLoss(1.0)`` is the paper's "messages lost" setting;
    together with :class:`FixedDelay` it reproduces the paper's
    "messages delayed" setting exactly (one Bernoulli draw per message).

    Units: probability [1]
    """

    probability: float

    def __post_init__(self) -> None:
        check_probability(self.probability, "probability")

    @property
    def is_stochastic(self) -> bool:
        """Draws one Bernoulli per copy unless the probability is 0 or 1."""
        return 0.0 < self.probability < 1.0

    def start(self) -> FaultProcess:
        """Create the (stateless) loss process."""
        return _StatelessProcess(self)

    def _transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        """Drop each copy independently.

        Effects: draws-rng
        """
        if self.probability == 0.0:
            return offsets
        if self.probability >= 1.0:  # safelint: disable=SFL001 - prob sentinel
            return []
        assert rng is not None  # enforced by Channel for stochastic models
        return [o for o in offsets if not rng.bernoulli(self.probability)]

    def describe(self) -> str:
        """One-line description."""
        if self.probability >= 1.0:  # safelint: disable=SFL001 - prob sentinel
            return "all messages lost"
        return f"independent loss p={self.probability:g}"


@dataclass(frozen=True)
class GilbertElliottLoss(FaultModel):
    """Two-state Markov (Gilbert–Elliott) burst loss.

    The channel alternates between a *good* and a *bad* (burst) state;
    one state transition is drawn per message offer, then each copy of
    the message is dropped with the current state's loss probability.
    With ``loss_good = 0`` and ``loss_bad = 1`` (the classic Gilbert
    channel) messages are lost exactly during bursts, whose mean length
    is ``1 / p_exit_burst`` messages.

    Units: p_enter_burst [1], p_exit_burst [1], loss_good [1], loss_bad [1]

    Parameters
    ----------
    p_enter_burst:
        Per-message probability of moving good -> bad.
    p_exit_burst:
        Per-message probability of moving bad -> good.
    loss_good:
        Loss probability while in the good state (default 0).
    loss_bad:
        Loss probability while in the bad state (default 1).
    start_bad:
        Whether the channel starts inside a burst (default ``False``).
    """

    p_enter_burst: float
    p_exit_burst: float
    loss_good: float = 0.0
    loss_bad: float = 1.0
    start_bad: bool = False

    def __post_init__(self) -> None:
        check_probability(self.p_enter_burst, "p_enter_burst")
        check_probability(self.p_exit_burst, "p_exit_burst")
        check_probability(self.loss_good, "loss_good")
        check_probability(self.loss_bad, "loss_bad")

    @property
    def is_stochastic(self) -> bool:
        """State transitions and drops are both random."""
        return True

    def start(self) -> FaultProcess:
        """Create a process holding the Markov state."""
        return _GilbertElliottProcess(self)

    def describe(self) -> str:
        """One-line description."""
        return (
            f"Gilbert-Elliott burst loss (enter={self.p_enter_burst:g}, "
            f"exit={self.p_exit_burst:g}, loss bad={self.loss_bad:g})"
        )


class _GilbertElliottProcess(FaultProcess):
    """Holds the good/bad state of one Gilbert–Elliott channel."""

    def __init__(self, model: GilbertElliottLoss) -> None:
        self._model = model
        self._bad = model.start_bad

    @property
    def in_burst(self) -> bool:
        """Whether the channel is currently in the bad (burst) state."""
        return self._bad

    def transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        """Advance the Markov state once, then drop per-copy.

        Units: -> [s]
        Effects: mutates-args, draws-rng
        """
        assert rng is not None  # model is always stochastic
        m = self._model
        if self._bad:
            if rng.bernoulli(m.p_exit_burst):
                self._bad = False
        elif rng.bernoulli(m.p_enter_burst):
            self._bad = True
        loss = m.loss_bad if self._bad else m.loss_good
        if loss == 0.0:
            return offsets
        return [o for o in offsets if not rng.bernoulli(loss)]


@dataclass(frozen=True)
class FixedDelay(FaultModel):
    """Constant delivery delay added to every copy.

    Units: delay [s]
    """

    delay: float

    def __post_init__(self) -> None:
        check_nonnegative(self.delay, "delay")

    @property
    def is_stochastic(self) -> bool:
        """Deterministic."""
        return False

    def start(self) -> FaultProcess:
        """Create the (stateless) delay process."""
        return _StatelessProcess(self)

    def _transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        return [o + self.delay for o in offsets]

    def describe(self) -> str:
        """One-line description."""
        return f"fixed delay {self.delay:g}s"


@dataclass(frozen=True)
class UniformJitter(FaultModel):
    """Per-copy uniform random delay on ``[low, high)``.

    Any jitter whose spread exceeds the transmission period can reorder
    deliveries: a message sent at ``t`` with a large draw arrives after
    the message sent at ``t + dt_m`` with a small draw.  The estimators
    are required to handle that (see :mod:`repro.filtering.replay`).

    Units: low [s], high [s]
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        check_nonnegative(self.low, "low")
        check_finite(self.high, "high")
        check_range(self.low, self.high, "low", "high")

    @property
    def is_stochastic(self) -> bool:
        """One uniform draw per copy (unless the window is a point)."""
        return self.high > self.low

    def start(self) -> FaultProcess:
        """Create the (stateless) jitter process."""
        return _StatelessProcess(self)

    def _transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        """Shift every copy by one shared uniform draw.

        Effects: draws-rng
        """
        if self.high <= self.low:
            return [o + self.low for o in offsets]
        assert rng is not None  # enforced by Channel for stochastic models
        return [o + float(rng.uniform(self.low, self.high)) for o in offsets]

    def describe(self) -> str:
        """One-line description."""
        return f"uniform jitter [{self.low:g}, {self.high:g})s"


@dataclass(frozen=True)
class GaussianJitter(FaultModel):
    """Per-copy truncated-Gaussian random delay.

    Draws ``N(mean, std)`` and rejects samples outside ``[low, high]``
    (up to a bounded number of redraws, then clamps), so the offset is
    guaranteed to stay inside the truncation window.  ``low`` defaults
    to 0 — a delay cannot be negative.

    Units: mean [s], std [s], low [s], high [s]
    """

    mean: float
    std: float
    low: float = 0.0
    high: float = math.inf

    #: Redraws before falling back to clamping (keeps cost bounded).
    _MAX_REDRAWS = 16

    def __post_init__(self) -> None:
        check_finite(self.mean, "mean")
        check_nonnegative(self.std, "std")
        check_nonnegative(self.low, "low")
        if math.isnan(self.high):
            raise ConfigurationError("high must not be NaN")
        check_range(self.low, self.high, "low", "high")

    @property
    def is_stochastic(self) -> bool:
        """One (or a few, under rejection) Gaussian draws per copy."""
        return self.std > 0.0

    def start(self) -> FaultProcess:
        """Create the (stateless) jitter process."""
        return _StatelessProcess(self)

    def _draw(self, rng: RngStream) -> float:
        """One truncated-normal delay sample.

        Effects: draws-rng
        """
        if self.std == 0.0:
            return min(max(self.mean, self.low), self.high)
        for _ in range(self._MAX_REDRAWS):
            sample = float(rng.normal(self.mean, self.std))
            if self.low <= sample <= self.high:
                return sample
        return min(max(sample, self.low), self.high)

    def _transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        """Shift each copy by an independent truncated-normal draw.

        Effects: draws-rng
        """
        if not self.is_stochastic:
            fixed = min(max(self.mean, self.low), self.high)
            return [o + fixed for o in offsets]
        assert rng is not None  # enforced by Channel for stochastic models
        return [o + self._draw(rng) for o in offsets]

    def describe(self) -> str:
        """One-line description."""
        return (
            f"gaussian jitter N({self.mean:g}, {self.std:g}) on "
            f"[{self.low:g}, {self.high:g}]s"
        )


@dataclass(frozen=True)
class Duplication(FaultModel):
    """Random duplication of surviving copies (link retransmission).

    Each copy entering the stage spawns, with the given probability, one
    duplicate delivered ``lag`` seconds after the original.  With
    ``lag = 0`` the duplicate shares the original's delivery time (the
    channel still delivers both, in send order).

    Units: probability [1], lag [s]
    """

    probability: float
    lag: float = 0.0

    def __post_init__(self) -> None:
        check_probability(self.probability, "probability")
        check_nonnegative(self.lag, "lag")

    @property
    def is_stochastic(self) -> bool:
        """One Bernoulli per copy unless the probability is 0 or 1."""
        return self.probability > 0.0

    def start(self) -> FaultProcess:
        """Create the (stateless) duplication process."""
        return _StatelessProcess(self)

    def _transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        """Emit each copy, plus a lagged duplicate with probability p.

        Effects: draws-rng
        """
        if self.probability == 0.0:
            return offsets
        assert rng is not None  # enforced by Channel for stochastic models
        out: List[float] = []
        for offset in offsets:
            out.append(offset)
            if rng.bernoulli(self.probability):
                out.append(offset + self.lag)
        return out

    def describe(self) -> str:
        """One-line description."""
        return f"duplication p={self.probability:g} lag={self.lag:g}s"


@dataclass(frozen=True)
class ComposedFaults(FaultModel):
    """Sequential composition of fault stages (see :func:`compose`)."""

    stages: Tuple[FaultModel, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("compose() requires at least one stage")
        for stage in self.stages:
            if not isinstance(stage, FaultModel):
                raise ConfigurationError(
                    f"compose() arguments must be FaultModels, got {stage!r}"
                )

    @property
    def is_stochastic(self) -> bool:
        """Stochastic iff any stage is."""
        return any(stage.is_stochastic for stage in self.stages)

    def start(self) -> FaultProcess:
        """Create a pipeline of fresh per-stage processes."""
        return _ComposedProcess([stage.start() for stage in self.stages])

    def describe(self) -> str:
        """One-line description."""
        return " + ".join(stage.describe() for stage in self.stages)


class _ComposedProcess(FaultProcess):
    """Applies each stage's process in order."""

    def __init__(self, processes: List[FaultProcess]) -> None:
        self._processes = processes

    def transform(
        self, offsets: List[float], rng: Optional[RngStream]
    ) -> List[float]:
        """Pipe the copies through every stage, stopping once dropped.

        Units: -> [s]
        Effects: mutates-args, draws-rng
        """
        for process in self._processes:
            offsets = process.transform(offsets, rng)
            if not offsets:
                return offsets
        return offsets


def compose(*models: FaultModel) -> FaultModel:
    """Stack fault models into a pipeline applied in argument order.

    ``compose(a)`` returns ``a`` unchanged; nested compositions are
    flattened so ``describe()`` reads as one flat pipeline.
    """
    flat: List[FaultModel] = []
    for model in models:
        if isinstance(model, ComposedFaults):
            flat.extend(model.stages)
        else:
            flat.append(model)
    if len(flat) == 1:
        return flat[0]
    return ComposedFaults(stages=tuple(flat))


# ---------------------------------------------------------------------------
# The paper's Section V settings.
# ---------------------------------------------------------------------------
def no_disturbance() -> FaultModel:
    """The paper's "no disturbance" setting: immediate, lossless delivery."""
    return NoFault()


def messages_delayed(
    delay: float = 0.25, drop_probability: float = 0.0
) -> FaultModel:
    """The paper's "messages delayed" setting: loss ``p_d``, then delay ``dt_d``.

    Both stages are built (and so validated) before a zero-valued one is
    left out; with both zero the channel is :class:`NoFault`.  A zero
    loss stage is never kept, so this setting draws from the channel's
    random stream only when ``0 < drop_probability < 1``.

    Parameters
    ----------
    delay:
        Fixed delay ``dt_d``; the paper uses 0.25 s.
    drop_probability:
        Independent drop probability ``p_d``; the paper sweeps
        ``{0.05 j | j = 0..19}``.

    Units: delay [s], drop_probability [1]
    """
    loss = IndependentLoss(float(drop_probability))
    fixed = FixedDelay(float(delay))
    stages = [
        stage
        for stage in (loss, fixed)
        if stage not in (IndependentLoss(0.0), FixedDelay(0.0))
    ]
    return compose(*stages) if stages else NoFault()


def messages_lost() -> FaultModel:
    """The paper's "messages lost" setting: no message ever arrives."""
    return IndependentLoss(1.0)
