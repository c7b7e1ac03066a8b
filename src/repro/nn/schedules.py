"""Learning-rate schedules.

A schedule is a callable mapping the (0-based) epoch index to a learning
rate; ``Trainer(schedule=...)`` (:class:`~repro.nn.training.Trainer`)
assigns it to the optimizer's learning rate at the start of every
epoch.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ConfigurationError

__all__ = ["constant", "step_decay", "cosine", "warmup"]

Schedule = Callable[[int], float]


def constant(learning_rate: float) -> Schedule:
    """The identity schedule."""
    if learning_rate <= 0.0:
        raise ConfigurationError("learning_rate must be > 0")
    return lambda epoch: learning_rate


def step_decay(
    initial: float, factor: float = 0.5, every: int = 25
) -> Schedule:
    """Multiply by ``factor`` every ``every`` epochs."""
    if initial <= 0.0:
        raise ConfigurationError("initial must be > 0")
    if not 0.0 < factor <= 1.0:
        raise ConfigurationError("factor must be in (0, 1]")
    if every < 1:
        raise ConfigurationError("every must be >= 1")

    def schedule(epoch: int) -> float:
        return initial * factor ** (epoch // every)

    return schedule


def cosine(initial: float, total_epochs: int, floor: float = 0.0) -> Schedule:
    """Cosine annealing from ``initial`` to ``floor`` over the run."""
    if initial <= 0.0:
        raise ConfigurationError("initial must be > 0")
    if total_epochs < 1:
        raise ConfigurationError("total_epochs must be >= 1")
    if not 0.0 <= floor < initial:
        raise ConfigurationError("floor must be in [0, initial)")

    def schedule(epoch: int) -> float:
        progress = min(epoch / max(total_epochs - 1, 1), 1.0)
        return floor + 0.5 * (initial - floor) * (
            1.0 + math.cos(math.pi * progress)
        )

    return schedule


def warmup(base: Schedule, warmup_epochs: int) -> Schedule:
    """Linear ramp from near-zero into ``base`` over ``warmup_epochs``."""
    if warmup_epochs < 1:
        raise ConfigurationError("warmup_epochs must be >= 1")

    def schedule(epoch: int) -> float:
        if epoch < warmup_epochs:
            return base(epoch) * (epoch + 1) / warmup_epochs
        return base(epoch)

    return schedule
