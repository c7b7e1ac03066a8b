"""Model serialization: architecture as JSON, weights as npz.

A saved model is a single ``.npz`` file that contains every parameter
array plus a ``__config__`` entry holding the JSON architecture
description produced by ``Layer.config()``.  :func:`load_model` rebuilds
the architecture and restores the weights, so trained planners can be
shipped and reloaded without retraining.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.errors import SerializationError
from repro.nn.layers import Dense, Identity, Layer, ReLU, Sequential, Sigmoid, Tanh

__all__ = ["save_model", "load_model"]

_ACTIVATIONS: Dict[str, type] = {
    "ReLU": ReLU,
    "Tanh": Tanh,
    "Sigmoid": Sigmoid,
    "Identity": Identity,
}


def save_model(model: Sequential, path: Union[str, Path]) -> Path:
    """Write ``model`` (architecture + weights) to ``path``.

    Returns the path written (with ``.npz`` appended if missing).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    arrays = {name: param for name, param in model.parameters().items()}
    config_json = json.dumps(model.config())
    arrays["__config__"] = np.frombuffer(
        config_json.encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def load_model(path: Union[str, Path]) -> Sequential:
    """Rebuild a model saved by :func:`save_model`."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"model file not found: {path}")
    with np.load(path) as data:
        if "__config__" not in data:
            raise SerializationError(
                f"{path} is not a repro model file (missing __config__)"
            )
        config = json.loads(bytes(data["__config__"].tobytes()).decode("utf-8"))
        model = _build_from_config(config)
        params = model.parameters()
        for name, param in params.items():
            if name not in data:
                raise SerializationError(
                    f"{path} is missing parameter {name!r}"
                )
            stored = data[name]
            if stored.shape != param.shape:
                raise SerializationError(
                    f"parameter {name!r} shape mismatch: file has "
                    f"{stored.shape}, architecture expects {param.shape}"
                )
            param[...] = stored
    return model


def _build_from_config(config: dict) -> Sequential:
    if config.get("type") != "Sequential":
        raise SerializationError(
            f"expected a Sequential config, got {config.get('type')!r}"
        )
    layers: list[Layer] = []
    for layer_cfg in config.get("layers", []):
        layer_type = layer_cfg.get("type")
        if layer_type == "Dense":
            layers.append(
                Dense(
                    in_features=int(layer_cfg["in_features"]),
                    out_features=int(layer_cfg["out_features"]),
                    init=str(layer_cfg.get("init", "he")),
                )
            )
        elif layer_type in _ACTIVATIONS:
            layers.append(_ACTIVATIONS[layer_type]())
        else:
            raise SerializationError(f"unknown layer type {layer_type!r}")
    if not layers:
        raise SerializationError("model config contains no layers")
    return Sequential(layers)
