"""First-order optimizers.

An optimizer binds its model: every dense layer's weight, bias and
gradient arrays become views into two flat vectors, one of parameters
and one of gradients, with their values unchanged.  The layers still
own ``weight``/``grad_weight`` attributes that ``forward``/``backward``
read and accumulate into as before; the optimizer updates every
parameter at once, in place, with a fixed number of numpy calls on the
flat vectors.  Moments and velocities are flat vectors in the same
layout.  Hold layers rather than their arrays across an optimizer's
construction: binding replaces each layer's arrays by the views.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import Dense, Layer, Sequential

__all__ = ["Optimizer", "SGD", "Adam"]


def _dense_layers(model: Layer) -> List[Dense]:
    """The dense layers of ``model``, in :meth:`Layer.parameters` order."""
    if isinstance(model, Dense):
        return [model]
    if isinstance(model, Sequential):
        return [dense for layer in model.layers for dense in _dense_layers(layer)]
    if model.parameters():
        raise ConfigurationError(
            f"cannot optimize the parameters of {type(model).__name__}; "
            "expected Dense layers in Sequential containers"
        )
    return []


def _arrays(layer: Dense) -> Tuple[np.ndarray, ...]:
    """A dense layer's weight, bias, weight gradient and bias gradient."""
    return (layer.weight, layer.bias, layer.grad_weight, layer.grad_bias)


def _flatten(
    arrays: List[np.ndarray],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Copy ``arrays`` into one flat vector; return it and a view per array.

    Shapes: -> array
    """
    sizes = [array.size for array in arrays]
    flat = np.zeros(sum(sizes))
    views = []
    start = 0
    for array, size in zip(arrays, sizes):
        view = flat[start : start + size].reshape(array.shape)
        view[...] = array
        views.append(view)
        start += size
    return flat, views


class Optimizer:
    """Base class tying a model's parameters to an update rule.

    Parameters
    ----------
    model:
        The network whose parameters are updated in place; its dense
        layers' arrays become views into the optimizer's flat vectors.
    learning_rate:
        Step size (mutable: learning-rate schedules assign to
        :attr:`learning_rate` between steps).
    weight_decay:
        Decoupled L2 regularisation: each step first shrinks every
        parameter by ``learning_rate * weight_decay * param`` (AdamW
        style), independent of the gradient statistics.
    grad_clip:
        If set, gradients are clipped to this global L2 norm before the
        update — the standard guard against exploding steps on the
        expert's discontinuous GO/YIELD labels.
    """

    def __init__(
        self,
        model: Layer,
        learning_rate: float,
        weight_decay: float = 0.0,
        grad_clip: float = None,
    ) -> None:
        if learning_rate <= 0.0:
            raise ConfigurationError(
                f"learning_rate must be > 0, got {learning_rate}"
            )
        if weight_decay < 0.0:
            raise ConfigurationError(
                f"weight_decay must be >= 0, got {weight_decay}"
            )
        if grad_clip is not None and grad_clip <= 0.0:
            raise ConfigurationError(
                f"grad_clip must be > 0, got {grad_clip}"
            )
        self._model = model
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.grad_clip = grad_clip
        dense = _dense_layers(model)
        self._dense: List[Dense] = []
        #: Per bound layer: (weight, bias, grad_weight, grad_bias) views.
        self._views: List[Tuple[np.ndarray, ...]] = []
        #: Gradient views in parameters() order (the clip norm's order).
        self._grad_views: List[np.ndarray] = []
        self._shapes = [(layer.weight.shape, layer.bias.shape) for layer in dense]
        self._params = self._grads = np.zeros(0)
        self._bind()
        self._scratch = np.zeros_like(self._params)
        self._step_buffer = np.zeros_like(self._params)

    @property
    def model(self) -> Layer:
        """The network this optimizer updates."""
        return self._model

    def _bind(self) -> None:
        """Make the model's arrays views into the flat vectors, if they are not.

        A no-op while the binding holds.  Otherwise (at construction,
        after a layer or array was replaced, or in a copied or unpickled
        optimizer) the model's current values are copied into fresh flat
        vectors in the same layout.

        Effects: mutates-args
        """
        dense = _dense_layers(self._model)
        if self._is_bound(dense):
            return
        if len({id(layer) for layer in dense}) != len(dense):
            raise ConfigurationError(
                "a Dense layer appears twice in the model; one layer's "
                "arrays cannot be bound to two places"
            )
        if [(layer.weight.shape, layer.bias.shape) for layer in dense] != self._shapes:
            raise ConfigurationError(
                "the model's parameter shapes changed under its optimizer"
            )
        self._params, params = _flatten(
            [array for layer in dense for array in _arrays(layer)[:2]]
        )
        self._grads, self._grad_views = _flatten(
            [array for layer in dense for array in _arrays(layer)[2:]]
        )
        self._dense = dense
        self._views = []
        for i, layer in enumerate(dense):
            views = (*params[2 * i : 2 * i + 2], *self._grad_views[2 * i : 2 * i + 2])
            layer.weight, layer.bias, layer.grad_weight, layer.grad_bias = views
            self._views.append(views)

    def _is_bound(self, dense: List[Dense]) -> bool:
        if dense != self._dense:
            return False
        if self._views and self._views[0][0].base is not self._params:
            # A copied or unpickled optimizer: its views own their data.
            return False
        return all(
            array is view
            for layer, views in zip(dense, self._views)
            for array, view in zip(_arrays(layer), views)
        )

    def step(self) -> None:
        """Apply one update from the currently accumulated gradients.

        Effects: mutates-args
        """
        self._bind()
        self._update()

    def _update(self) -> None:
        """One update of the bound flat vectors, without re-checking the binding.

        The training loop calls this after :meth:`_bind`; :meth:`step` is
        the same update behind the check.

        Effects: mutates-args
        """
        self._prepare()
        self._apply_rule()

    def zero_grad(self) -> None:
        """Clear the model's accumulated gradients."""
        self._model.zero_grad()

    def _apply_rule(self) -> None:
        raise NotImplementedError

    def _prepare(self) -> None:
        """Apply decay and clipping before the rule-specific update."""
        if self.weight_decay > 0.0:
            decay = self._scratch
            np.multiply(self._params, self.learning_rate * self.weight_decay, out=decay)
            self._params -= decay
        if self.grad_clip is not None:
            # Per-parameter sums in parameters() order: one flat sum
            # would round differently.
            total = float(
                np.sqrt(
                    sum(float(np.sum(g * g)) for g in self._grad_views)
                )
            )
            if total > self.grad_clip and total > 0.0:
                self._grads *= self.grad_clip / total


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        model: Layer,
        learning_rate: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        grad_clip: float = None,
    ) -> None:
        super().__init__(
            model, learning_rate, weight_decay=weight_decay,
            grad_clip=grad_clip,
        )
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(
                f"momentum must be in [0, 1), got {momentum}"
            )
        self.momentum = float(momentum)
        self._velocity = np.zeros_like(self._params)

    def _apply_rule(self) -> None:
        step = self._step_buffer
        np.multiply(self._grads, self.learning_rate, out=step)
        if self.momentum > 0.0:
            velocity = self._velocity
            velocity *= self.momentum
            velocity -= step
            self._params += velocity
        else:
            self._params -= step


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates."""

    def __init__(
        self,
        model: Layer,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: float = None,
    ) -> None:
        super().__init__(
            model, learning_rate, weight_decay=weight_decay,
            grad_clip=grad_clip,
        )
        if not 0.0 <= beta1 < 1.0:
            raise ConfigurationError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ConfigurationError(f"beta2 must be in [0, 1), got {beta2}")
        if eps <= 0.0:
            raise ConfigurationError(f"eps must be > 0, got {eps}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._t = 0
        self._m = np.zeros_like(self._params)
        self._v = np.zeros_like(self._params)

    def _apply_rule(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        grad, m, v = self._grads, self._m, self._v
        scratch, step = self._scratch, self._step_buffer
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + ((1 - beta2) g) g
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        m += scratch
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=scratch)
        scratch *= grad
        v += scratch
        # param -= (lr m_hat) / (sqrt(v_hat) + eps)
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        np.divide(m, bias1, out=step)
        step *= self.learning_rate
        step /= scratch
        self._params -= step
