"""Numeric helpers for the neural-network substrate.

Weight-initialisation schemes and small array utilities shared by the
layer implementations.  All functions take an explicit
:class:`numpy.random.Generator` so training is reproducible from a single
seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "he_init",
    "xavier_init",
    "zeros_init",
    "as_batch",
    "check_2d",
]


def he_init(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """He-normal initialisation, suited to ReLU layers.

    Shapes: -> [I, O]
    """
    _check_fans(fan_in, fan_out)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def xavier_init(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Xavier/Glorot-uniform initialisation, suited to tanh layers.

    Shapes: -> [I, O]
    """
    _check_fans(fan_in, fan_out)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def zeros_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """All-zero initialisation (used for biases).

    Shapes: -> [I, O]
    """
    _check_fans(fan_in, fan_out)
    return np.zeros((fan_in, fan_out))


def as_batch(x: np.ndarray) -> np.ndarray:
    """Promote a 1-D feature vector to a single-row batch.

    The layers operate on ``(batch, features)`` arrays; this feeds them
    one feature vector at a time.

    Shapes: x array -> [B, F]
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    if arr.ndim == 2:
        return arr
    raise ConfigurationError(
        f"expected a 1-D or 2-D array, got shape {arr.shape}"
    )


def check_2d(x: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``x`` is a 2-D float array and return it as such.

    Shapes: x array -> [B, F]
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ConfigurationError(
            f"{name} must be 2-D (batch, features), got shape {arr.shape}"
        )
    return arr


def _check_fans(fan_in: int, fan_out: int) -> None:
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigurationError(
            f"layer dimensions must be positive, got ({fan_in}, {fan_out})"
        )
