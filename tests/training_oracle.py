"""Test-only oracle: the per-layer training loop the fused step replaced.

These are ``repro.nn.optimizers`` and ``repro.nn.training.Trainer`` as
they stood before minibatches ran as one fused step over flat vectors:
the optimizers keep per-parameter dictionaries of moments and update
each array of ``model.parameters()`` in turn, and the trainer drives the
public per-layer API (``optimizer.zero_grad``, ``Sequential.forward``,
``Sequential.backward``, ``optimizer.step``) on every minibatch.  It is
kept unchanged as the slow counterpart of the fast path;
``tests/test_training_oracle.py`` checks the fused trainer against it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.nn.layers import Layer, Sequential
from repro.nn.losses import Loss, MSELoss
from repro.nn.tensor_ops import check_2d
from repro.nn.training import TrainingHistory

__all__ = ["Optimizer", "SGD", "Adam", "Trainer"]


class Optimizer:
    """Base class tying a model's parameters to an update rule.

    Parameters
    ----------
    model:
        The network whose parameters are updated in place.
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

    def step(self) -> None:
        """Apply one update from the currently accumulated gradients."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear the model's accumulated gradients."""
        self._model.zero_grad()

    def _prepare(self) -> None:
        """Apply decay and clipping before the rule-specific update."""
        if self.weight_decay > 0.0:
            for param in self._model.parameters().values():
                param -= self.learning_rate * self.weight_decay * param
        if self.grad_clip is not None:
            grads = self._model.gradients()
            total = float(
                np.sqrt(
                    sum(float(np.sum(g * g)) for g in grads.values())
                )
            )
            if total > self.grad_clip and total > 0.0:
                scale = self.grad_clip / total
                for grad in grads.values():
                    grad *= scale


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
        self._velocity: Dict[str, np.ndarray] = {
            name: np.zeros_like(param)
            for name, param in model.parameters().items()
        }

    def step(self) -> None:
        self._prepare()
        params = self._model.parameters()
        grads = self._model.gradients()
        for name, param in params.items():
            grad = grads[name]
            if self.momentum > 0.0:
                v = self._velocity[name]
                v *= self.momentum
                v -= self.learning_rate * grad
                param += v
            else:
                param -= self.learning_rate * grad


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
        params = model.parameters()
        self._m: Dict[str, np.ndarray] = {
            name: np.zeros_like(p) for name, p in params.items()
        }
        self._v: Dict[str, np.ndarray] = {
            name: np.zeros_like(p) for name, p in params.items()
        }

    def step(self) -> None:
        self._prepare()
        self._t += 1
        params = self._model.parameters()
        grads = self._model.gradients()
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for name, param in params.items():
            grad = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


class Trainer:
    """Fits a :class:`~repro.nn.layers.Sequential` model by minibatch SGD.

    Parameters
    ----------
    model:
        The network to train (updated in place).
    loss:
        Loss object; defaults to MSE.
    optimizer:
        Defaults to Adam at 1e-3.
    batch_size:
        Minibatch size.
    rng:
        Generator used for shuffling and the validation split.
    """

    def __init__(
        self,
        model: Sequential,
        loss: Optional[Loss] = None,
        optimizer: Optional[Optimizer] = None,
        batch_size: int = 64,
        rng: Optional[np.random.Generator] = None,
        schedule=None,
    ) -> None:
        if batch_size <= 0:
            raise TrainingError(f"batch_size must be > 0, got {batch_size}")
        self.model = model
        self.loss = loss if loss is not None else MSELoss()
        self.optimizer = optimizer if optimizer is not None else Adam(model)
        self.batch_size = int(batch_size)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Optional learning-rate schedule (epoch -> lr), applied to the
        #: optimizer at the start of every epoch; see repro.nn.schedules.
        self.schedule = schedule

    # ------------------------------------------------------------------
    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        epochs: int = 100,
        validation_fraction: float = 0.1,
        patience: Optional[int] = 10,
        min_delta: float = 1e-6,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for up to ``epochs`` epochs with optional early stopping.

        Shapes: inputs [N, I], targets [N, O]

        Parameters
        ----------
        inputs, targets:
            ``(n, d_in)`` and ``(n, d_out)`` arrays.
        validation_fraction:
            Held-out fraction for validation; 0 disables validation (and
            therefore early stopping).
        patience:
            Stop after this many epochs without validation improvement;
            ``None`` disables early stopping.
        min_delta:
            Minimum improvement that resets the patience counter.

        Returns
        -------
        TrainingHistory
        """
        x = check_2d(inputs, "inputs")
        y = check_2d(targets, "targets")
        if x.shape[0] != y.shape[0]:
            raise TrainingError(
                f"inputs and targets disagree on n: {x.shape[0]} vs {y.shape[0]}"
            )
        if x.shape[0] == 0:
            raise TrainingError("cannot train on an empty dataset")
        if not 0.0 <= validation_fraction < 1.0:
            raise TrainingError(
                f"validation_fraction must be in [0, 1), got {validation_fraction}"
            )
        if epochs <= 0:
            raise TrainingError(f"epochs must be > 0, got {epochs}")

        x_train, y_train, x_val, y_val = self._split(x, y, validation_fraction)
        history = TrainingHistory()
        best_val = float("inf")
        strikes = 0
        best_params = None

        for epoch in range(epochs):
            if self.schedule is not None:
                self.optimizer.learning_rate = float(self.schedule(epoch))
            train_loss = self._run_epoch(x_train, y_train)
            history.train_loss.append(train_loss)
            if verbose:
                print(f"epoch {epoch}: train_loss={train_loss:.6f}")

            if x_val is None:
                continue
            val_loss = self.evaluate(x_val, y_val)
            history.val_loss.append(val_loss)
            if val_loss < best_val - min_delta:
                best_val = val_loss
                history.best_epoch = epoch
                strikes = 0
                best_params = self._snapshot_params()
            else:
                strikes += 1
                if patience is not None and strikes >= patience:
                    history.stopped_early = True
                    break

        if best_params is not None:
            self._restore_params(best_params)
        # A trained model keeps no dataset-sized activations alive.
        self.model.clear_cache()
        return history

    def evaluate(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over a dataset without updating the model.

        Shapes: inputs [N, I], targets [N, O]
        """
        x = check_2d(inputs, "inputs")
        y = check_2d(targets, "targets")
        predictions = self.model.forward(x)
        return self.loss.value(predictions, y)

    # ------------------------------------------------------------------
    def _run_epoch(self, x: np.ndarray, y: np.ndarray) -> float:
        order = self._rng.permutation(x.shape[0])
        total = 0.0
        count = 0
        for start in range(0, x.shape[0], self.batch_size):
            batch = order[start : start + self.batch_size]
            xb = x[batch]
            yb = y[batch]
            self.optimizer.zero_grad()
            pred = self.model.forward(xb)
            batch_loss = self.loss.value(pred, yb)
            grad = self.loss.gradient(pred, yb)
            self.model.backward(grad)
            self.optimizer.step()
            total += batch_loss * xb.shape[0]
            count += xb.shape[0]
        return total / count

    def _split(
        self, x: np.ndarray, y: np.ndarray, fraction: float
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        if fraction == 0.0 or x.shape[0] < 2:
            return x, y, None, None
        n_val = max(1, int(round(x.shape[0] * fraction)))
        if n_val >= x.shape[0]:
            n_val = x.shape[0] - 1
        order = self._rng.permutation(x.shape[0])
        val_idx = order[:n_val]
        train_idx = order[n_val:]
        return x[train_idx], y[train_idx], x[val_idx], y[val_idx]

    def _snapshot_params(self):
        return {
            name: param.copy() for name, param in self.model.parameters().items()
        }

    def _restore_params(self, snapshot) -> None:
        for name, param in self.model.parameters().items():
            np.copyto(param, snapshot[name])
