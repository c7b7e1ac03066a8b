"""Minibatch training loop with validation and early stopping.

The planner factory uses :class:`Trainer` to fit the imitation-learning
MLPs; it is a general-purpose regression trainer over the
:mod:`repro.nn` layers.

Each minibatch runs as one fused step over the model's layer chain (see
:func:`~repro.nn.layers.layer_chain`): a bare forward pass on the live
layer arrays that keeps its activations, a backward pass that writes
each dense layer's gradients straight into the optimizer's flat
gradient vector, and one flat optimizer update.  It is the arithmetic
of ``Sequential.forward``/``backward`` plus ``optimizer.step()``,
operation for operation, without the per-layer checks, caches and
gradient fills, and without the first layer's unused input gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.nn.layers import (
    ChainStep,
    Dense,
    Layer,
    Sequential,
    chain_steps,
    layer_chain,
)
from repro.nn.losses import Loss, MSELoss
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.tensor_ops import check_2d

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-epoch loss curves recorded by the trainer."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    #: Epoch index (0-based) of the best validation loss, -1 before any.
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        """How many epochs actually ran."""
        return len(self.train_loss)

    @property
    def best_val_loss(self) -> float:
        """Best validation loss seen (inf if no validation split)."""
        if not self.val_loss:
            return float("inf")
        return min(self.val_loss)


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

    Raises :class:`ConfigurationError` if ``optimizer`` updates a model
    other than ``model``.
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
        """Bind the model, loss, optimizer and shuffling generator.

        Effects: mutates-args, draws-rng
        """
        if batch_size <= 0:
            raise TrainingError(f"batch_size must be > 0, got {batch_size}")
        if optimizer is not None and optimizer.model is not model:
            raise ConfigurationError(
                "the optimizer updates a different model than the trainer's"
            )
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

        Raises :class:`ConfigurationError`, before any epoch, unless the
        model is a chain of dense layers and activations from the input
        width to the target width.
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
        step = _FusedStep(
            layer_chain(self.model, x.shape[1], y.shape[1]),
            self.loss,
            self.optimizer,
        )

        x_train, y_train, x_val, y_val = self._split(x, y, validation_fraction)
        history = TrainingHistory()
        best_val = float("inf")
        strikes = 0
        best_params = None

        for epoch in range(epochs):
            if self.schedule is not None:
                self.optimizer.learning_rate = float(self.schedule(epoch))
            train_loss = self._run_epoch(x_train, y_train, step)
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

        Runs the bare forward pass: no layer caches are left behind.

        Shapes: inputs [N, I], targets [N, O]
        """
        x = check_2d(inputs, "inputs")
        y = check_2d(targets, "targets")
        steps = chain_steps(layer_chain(self.model, x.shape[1]))
        return self.loss.value(_forward(steps, x), y)

    # ------------------------------------------------------------------
    def _run_epoch(self, x: np.ndarray, y: np.ndarray, step: "_FusedStep") -> float:
        order = self._rng.permutation(x.shape[0])
        total = 0.0
        count = 0
        for start in range(0, x.shape[0], self.batch_size):
            batch = order[start : start + self.batch_size]
            xb = x[batch]
            yb = y[batch]
            batch_loss = step(xb, yb)
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

    def _snapshot_params(self) -> np.ndarray:
        """One flat copy of every parameter.

        Shapes: -> [P]
        """
        return self.optimizer._params.copy()

    def _restore_params(self, snapshot: np.ndarray) -> None:
        """Write a :meth:`_snapshot_params` copy back into the model.

        Shapes: snapshot [P]
        """
        np.copyto(self.optimizer._params, snapshot)


def _forward(
    steps: Sequence[ChainStep],
    x: np.ndarray,
    values: Optional[List[np.ndarray]] = None,
) -> np.ndarray:
    """Bare forward pass; ``values[i]``, if given, receives step ``i``'s input.

    Effects: mutates-args
    Shapes: x [B, I] -> [B, O]
    """
    for i, (dense, activation) in enumerate(steps):
        if values is not None:
            values[i] = x
        if dense is None:
            x = activation(x)
        else:
            x = x @ dense.weight + dense.bias
    if values is not None:
        values[-1] = x
    return x


class _FusedStep:
    """One minibatch of training over a checked layer chain.

    A bare forward pass that keeps every layer's input, the loss and its
    gradient, a backward pass that writes each dense layer's gradients
    into the optimizer's flat gradient vector (binding the model first),
    and one flat optimizer update.
    """

    def __init__(
        self, chain: Sequence[Layer], loss: Loss, optimizer: Optimizer
    ) -> None:
        optimizer._bind()
        self._loss = loss
        self._update = optimizer._update
        self._forward = chain_steps(chain)
        # The input gradient of the first dense layer is never read, so
        # the backward pass stops there.
        first = next(
            (i for i, layer in enumerate(chain) if isinstance(layer, Dense)),
            len(chain),
        )
        self._first = first
        # Layer index, dense layer or None, activation derivative or None,
        # and whether ``g @ W.T`` is one product per element (one output
        # unit), hence exactly ``g * W.T``; last layer first.
        self._backward = [
            (i, layer, None, layer.out_features == 1)
            if isinstance(layer, Dense)
            else (i, None, layer._dfn, False)
            for i, layer in enumerate(chain)
        ][first:][::-1]
        #: values[i] is layer i's input in the current step.
        self._values: List[np.ndarray] = [np.zeros((0, 0))] * (len(chain) + 1)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        """Train on one minibatch; return its loss before the update.

        Effects: mutates-args
        Shapes: x [B, I], y [B, O]
        """
        values = self._values
        prediction = _forward(self._forward, x, values)
        batch_loss = self._loss.value(prediction, y)
        grad = self._loss.gradient(prediction, y)
        for i, dense, derivative, single_output in self._backward:
            if dense is None:
                grad = grad * derivative(values[i + 1])
                continue
            np.matmul(values[i].T, grad, out=dense.grad_weight)
            np.add.reduce(grad, axis=0, out=dense.grad_bias)
            if i > self._first:
                weight_t = dense.weight.T
                grad = grad * weight_t if single_output else grad @ weight_t
        self._update()
        return batch_loss
