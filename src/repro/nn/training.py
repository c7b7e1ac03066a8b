"""Minibatch training loop with validation and early stopping.

The planner factory uses :class:`Trainer` to fit the imitation-learning
MLPs; it is a general-purpose regression trainer over the
:mod:`repro.nn` layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.nn.layers import Sequential
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
