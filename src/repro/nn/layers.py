"""Layers and the sequential container.

Each layer implements ``forward`` (caching what ``backward`` needs) and
``backward`` (returning the gradient with respect to its input and
accumulating parameter gradients).  The design is the classic explicit
reverse-mode pipeline: ``Sequential.backward`` feeds the loss gradient
through the layers in reverse.

Shapes are ``(batch, features)`` everywhere.  :func:`layer_chain` is the
one rule for which models can also run as bare ``h @ W + b`` and
activation calls (:func:`chain_steps`): the trainer's fused step and the
planner's inference path (:func:`inference_steps`, the same arithmetic
with in-place activations) both run on it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.tensor_ops import check_2d, he_init, xavier_init

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Sequential",
    "ChainStep",
    "layer_chain",
    "chain_steps",
    "inference_steps",
]


class Layer:
    """Base class: a differentiable map with (possibly empty) parameters."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output, caching for :meth:`backward`.

        Shapes: x [B, F] -> [B, G]
        """
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate the gradient; accumulate parameter gradients.

        Shapes: grad_output [B, G] -> [B, F]
        """
        raise NotImplementedError

    def parameters(self) -> Dict[str, np.ndarray]:
        """Named parameter arrays (mutated in place by optimizers)."""
        return {}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Named gradient arrays, aligned with :meth:`parameters`."""
        return {}

    def zero_grad(self) -> None:
        """Reset accumulated gradients to zero."""

    def clear_cache(self) -> None:
        """Drop what :meth:`forward` cached for :meth:`backward`."""

    def config(self) -> Dict[str, object]:
        """JSON-serialisable description used by the model serializer."""
        return {"type": type(self).__name__}


class Dense(Layer):
    """Fully connected affine layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    rng:
        Generator used for weight initialisation.
    init:
        ``"he"`` (default, for ReLU stacks) or ``"xavier"`` (for tanh).
    """

    _INITS: Dict[str, Callable] = {"he": he_init, "xavier": xavier_init}

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        init: str = "he",
    ) -> None:
        """Draw the initial weights; the bias and gradients start at zero.

        Effects: mutates-args, draws-rng
        """
        if init not in self._INITS:
            raise ConfigurationError(
                f"unknown init {init!r}; expected one of {sorted(self._INITS)}"
            )
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self._init_name = init
        self.weight = self._INITS[init](self.in_features, self.out_features, rng)
        self.bias = np.zeros(self.out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Affine map ``x W + b`` over the batch.

        Shapes: x [B, F] -> [B, G]
        """
        x = check_2d(x, "Dense input")
        if x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"Dense expected {self.in_features} features, got {x.shape[1]}"
            )
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Input gradient ``g W'``; accumulates ``x' g`` and column sums.

        Shapes: grad_output [B, G] -> [B, F]
        """
        if self._input is None:
            raise ConfigurationError("backward called before forward")
        grad_output = check_2d(grad_output, "Dense grad_output")
        self.grad_weight += self._input.T @ grad_output
        self.grad_bias += grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def zero_grad(self) -> None:
        self.grad_weight.fill(0.0)
        self.grad_bias.fill(0.0)

    def clear_cache(self) -> None:
        self._input = None

    def config(self) -> Dict[str, object]:
        return {
            "type": "Dense",
            "in_features": self.in_features,
            "out_features": self.out_features,
            "init": self._init_name,
        }


class _Activation(Layer):
    """Base for parameter-free elementwise activations."""

    def __init__(self) -> None:
        self._cache: Optional[np.ndarray] = None

    def _fn(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dfn(self, cached: np.ndarray) -> np.ndarray:
        """Derivative expressed in terms of what :meth:`forward` cached."""
        raise NotImplementedError

    def _fn_inplace(self, x: np.ndarray) -> np.ndarray:
        """:meth:`_fn` written over ``x`` where the ufunc allows it.

        Returns the result (``x`` itself, or a fresh array where the
        activation has no in-place form).  Only for a caller that owns
        ``x``.
        """
        return self._fn(x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self._fn(np.asarray(x, dtype=float))
        self._cache = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ConfigurationError("backward called before forward")
        return grad_output * self._dfn(self._cache)

    def clear_cache(self) -> None:
        self._cache = None


#: ReLU's floor as a read-only 0-d array: ``np.maximum`` skips
#: converting a Python float on every in-place call (same ufunc loop,
#: same result).
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class ReLU(_Activation):
    """Rectified linear unit."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def _fn_inplace(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, _ZERO, out=x)

    def _dfn(self, cached: np.ndarray) -> np.ndarray:
        return (cached > 0.0).astype(float)


class Tanh(_Activation):
    """Hyperbolic tangent."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def _fn_inplace(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x, out=x)

    def _dfn(self, cached: np.ndarray) -> np.ndarray:
        return 1.0 - cached * cached


class Sigmoid(_Activation):
    """Logistic sigmoid."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable piecewise evaluation.
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def _dfn(self, cached: np.ndarray) -> np.ndarray:
        return cached * (1.0 - cached)


class Identity(_Activation):
    """Identity activation (handy as an output placeholder)."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return x

    def _dfn(self, cached: np.ndarray) -> np.ndarray:
        return np.ones_like(cached)


class Sequential(Layer):
    """A stack of layers applied in order.

    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> net = Sequential([Dense(3, 8, rng), ReLU(), Dense(8, 1, rng)])
    >>> net.forward(np.zeros((4, 3))).shape
    (4, 1)
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ConfigurationError("Sequential requires at least one layer")
        self.layers: List[Layer] = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Feed ``x`` through every layer in order.

        Shapes: x [B, F] -> [B, G]
        """
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Feed the loss gradient through the layers in reverse.

        Shapes: grad_output [B, G] -> [B, F]
        """
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def parameters(self) -> Dict[str, np.ndarray]:
        params: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.parameters().items():
                params[f"layer{i}.{name}"] = value
        return params

    def gradients(self) -> Dict[str, np.ndarray]:
        grads: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.gradients().items():
                grads[f"layer{i}.{name}"] = value
        return grads

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def clear_cache(self) -> None:
        for layer in self.layers:
            layer.clear_cache()

    def config(self) -> Dict[str, object]:
        return {
            "type": "Sequential",
            "layers": [layer.config() for layer in self.layers],
        }

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Alias of :meth:`forward` for inference-flavoured call sites.

        Shapes: x [B, F] -> [B, G]
        """
        return self.forward(x)

    def __iter__(self) -> Iterable[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


def layer_chain(
    model: Layer, in_width: int, out_width: Optional[int] = None
) -> Tuple[Layer, ...]:
    """The layers of ``model``, checked to run as a bare chain.

    A bare chain is ``h @ W + b`` for each :class:`Dense` layer and
    ``_fn(h)`` for each activation, in order, on the live layer arrays.
    Raises :class:`ConfigurationError` unless every layer is a
    :class:`Dense` layer or an activation and the dense widths chain from
    ``in_width`` (to ``out_width``, when given).
    """
    layers = model.layers if isinstance(model, Sequential) else [model]
    width = in_width
    for index, layer in enumerate(layers):
        if isinstance(layer, Dense):
            if layer.in_features != width:
                raise ConfigurationError(
                    f"layer {index} expects {layer.in_features} inputs; "
                    f"the chain delivers {width}"
                )
            width = layer.out_features
        elif not isinstance(layer, _Activation):
            raise ConfigurationError(
                f"layer {index} ({type(layer).__name__}) has no inference "
                "path; expected Dense layers and activations"
            )
    if out_width is not None and width != out_width:
        raise ConfigurationError(
            f"the chain delivers {width} outputs; expected {out_width}"
        )
    return tuple(layers)


#: One step of a bare chain: a dense layer (its arrays read live at every
#: call), an activation function, or (in :func:`inference_steps`) both.
ChainStep = Tuple[Optional[Dense], Optional[Callable[[np.ndarray], np.ndarray]]]


def chain_steps(layers: Sequence[Layer]) -> Tuple[ChainStep, ...]:
    """A checked :func:`layer_chain` as bare steps.

    ``(dense, None)`` runs ``h @ dense.weight + dense.bias`` and
    ``(None, fn)`` runs ``fn(h)``: the arithmetic of
    :meth:`Sequential.forward` without its checks and caches.
    """
    return tuple(
        (layer, None) if isinstance(layer, Dense) else (None, layer._fn)
        for layer in layers
    )


def inference_steps(layers: Sequence[Layer]) -> Tuple[ChainStep, ...]:
    """A checked :func:`layer_chain` as steps that write over their row.

    Each :class:`Dense` layer is paired with the activation that follows
    it: ``(dense, fn)`` runs ``h = h.dot(dense.weight)`` (``np.dot``),
    ``h += dense.bias`` and ``h = fn(h)``, where ``fn`` is the activation's
    ``_fn_inplace`` (or ``None``); an activation without a dense layer
    before it is ``(None, fn)``.  :class:`Identity` layers are dropped.
    On a row the caller owns, this is :func:`chain_steps`'s arithmetic
    bit for bit, without a temporary per bias and activation.
    """
    steps: List[ChainStep] = []
    for layer in layers:
        if isinstance(layer, Dense):
            steps.append((layer, None))
        elif not isinstance(layer, Identity):
            if steps and steps[-1][1] is None:
                steps[-1] = (steps[-1][0], layer._fn_inplace)
            else:
                steps.append((None, layer._fn_inplace))
    return tuple(steps)
