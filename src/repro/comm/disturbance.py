"""Communication disturbance models and the paper's three presets.

Section V of the paper evaluates three communication settings:

* **no disturbance** — every message arrives immediately;
* **messages delayed** — each message is independently dropped with
  probability ``p_d``; surviving messages are delivered after a fixed
  delay ``dt_d`` (the paper uses ``dt_d = 0.25 s`` and sweeps
  ``p_d in {0, 0.05, ..., 0.95}``);
* **messages lost** — every message is dropped, so the ego must rely on
  its noisy onboard sensors alone.

A :class:`DisturbanceModel` names a setting's drop probability and
delivery delay; :meth:`DisturbanceModel.as_fault_model` turns it into the
channel fault pipeline (independent loss, then a fixed delay) that makes
the per-message decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.faults import FaultModel, FixedDelay, IndependentLoss, NoFault, compose
from repro.utils.validation import check_nonnegative, check_probability

__all__ = [
    "DisturbanceModel",
    "no_disturbance",
    "messages_delayed",
    "messages_lost",
]


@dataclass(frozen=True, slots=True)
class DisturbanceModel:
    """Per-message drop probability and delivery delay.

    Attributes
    ----------
    delay:
        Fixed delivery delay ``dt_d`` (seconds) applied to every message
        that is not dropped.
    drop_probability:
        Independent probability ``p_d`` that a message never arrives.
        ``1.0`` models the paper's "messages lost" setting.
    """

    delay: float = 0.0
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "delay", check_nonnegative(self.delay, "delay"))
        object.__setattr__(
            self,
            "drop_probability",
            check_probability(self.drop_probability, "drop_probability"),
        )

    @property
    def always_drops(self) -> bool:
        """Whether no message ever gets through (``p_d == 1``)."""
        return self.drop_probability >= 1.0

    def as_fault_model(self) -> FaultModel:
        """This preset expressed in the composable fault-model algebra.

        The paper's three settings are trivial instances of
        :mod:`repro.comm.faults`: independent loss composed with a fixed
        delay.  The simulation engine builds every channel from this
        conversion unless the comm setup names its own fault model.
        """
        if self.delay == 0.0 and self.drop_probability == 0.0:
            return NoFault()
        stages = []
        if self.drop_probability > 0.0:
            stages.append(IndependentLoss(self.drop_probability))
        if self.delay > 0.0:
            stages.append(FixedDelay(self.delay))
        return compose(*stages)

    def describe(self) -> str:
        """Human-readable one-line description (used in reports)."""
        if self.always_drops:
            return "messages lost (always dropped)"
        if self.delay == 0.0 and self.drop_probability == 0.0:
            return "no disturbance"
        return (
            f"delay={self.delay:g}s, drop probability={self.drop_probability:g}"
        )


def no_disturbance() -> DisturbanceModel:
    """The paper's "no disturbance" setting: immediate, lossless delivery."""
    return DisturbanceModel(delay=0.0, drop_probability=0.0)


def messages_delayed(
    delay: float = 0.25, drop_probability: float = 0.0
) -> DisturbanceModel:
    """The paper's "messages delayed" setting.

    Parameters
    ----------
    delay:
        Fixed delay ``dt_d``; the paper uses 0.25 s.
    drop_probability:
        Independent drop probability ``p_d``; the paper sweeps
        ``{0.05 j | j = 0..19}``.
    """
    return DisturbanceModel(delay=delay, drop_probability=drop_probability)


def messages_lost() -> DisturbanceModel:
    """The paper's "messages lost" setting: communication is unavailable."""
    return DisturbanceModel(delay=0.0, drop_probability=1.0)
