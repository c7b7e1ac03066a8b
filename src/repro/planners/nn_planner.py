"""The NN-based planner: feature extraction, scaling, inference wrapper.

The paper's case study defines the planner inputs as
``(t, p_0(t), v_0(t), tau_{1,min}(t), tau_{1,max}(t))`` (Section IV).
This module keeps that five-feature interface with one well-conditioned
transformation: the window bounds enter as *relative* delays
``tau - t`` clipped to a bounded range, so features stay bounded whatever
the simulation length, and an empty window (the oncoming vehicle cleared
or provably never arrives) is encoded as a window entirely in the past.

:class:`NNPlanner` wires a trained :class:`~repro.nn.layers.Sequential`
regression network behind the :class:`~repro.planners.base.Planner`
protocol.  Which window estimator the planner consults is a constructor
argument — feeding the same network a conservative or an aggressive
estimator is exactly how the framework moves between the basic and the
ultimate compound configurations without retraining.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError
from repro.nn.layers import Dense, Sequential, _Activation
from repro.planners.base import PlanningContext
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.utils.intervals import Interval

__all__ = [
    "WINDOW_PAST",
    "WINDOW_FAR",
    "planner_features",
    "FeatureScaler",
    "NNPlanner",
]

#: Relative-delay encoding of "in the past" (empty/expired windows).
WINDOW_PAST = -5.0
#: Upper clip of relative delays (anything further is "far future").
WINDOW_FAR = 50.0

#: Feature vector width: (t, p0, v0, rel_lo, rel_hi).
N_FEATURES = 5


def planner_features(
    time: float, position: float, velocity: float, window: Interval
) -> np.ndarray:
    """Build the five-feature input vector of the case-study planner.

    Units: time [s], position [m], velocity [m/s]

    Parameters
    ----------
    time, position, velocity:
        The ego's clock and state.
    window:
        Absolute-time occupancy window of the oncoming vehicle; may be
        empty.

    Returns
    -------
    numpy.ndarray
        Shape ``(5,)``: ``[t, p0, v0, rel_lo, rel_hi]`` with the relative
        delays clipped to ``[WINDOW_PAST, WINDOW_FAR]``.
    """
    if window.is_empty:
        rel_lo = WINDOW_PAST
        rel_hi = WINDOW_PAST
    else:
        rel_lo = min(max(window.lo - time, WINDOW_PAST), WINDOW_FAR)
        rel_hi = min(max(window.hi - time, WINDOW_PAST), WINDOW_FAR)
    return np.array([time, position, velocity, rel_lo, rel_hi], dtype=float)


@dataclass
class FeatureScaler:
    """Per-feature standardisation fitted on the training set.

    Attributes
    ----------
    mean, std:
        Arrays of shape ``(n_features,)``; zero standard deviations are
        replaced by 1 so constant features pass through unchanged.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.std = np.asarray(self.std, dtype=float).ravel()
        if self.mean.shape != self.std.shape:
            raise ConfigurationError(
                f"mean/std shape mismatch: {self.mean.shape} vs {self.std.shape}"
            )
        self.std = np.where(self.std <= 0.0, 1.0, self.std)

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureScaler":
        """Fit mean/std over a ``(n, d)`` feature matrix."""
        arr = np.asarray(features, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ConfigurationError(
                f"expected a non-empty (n, d) matrix, got shape {arr.shape}"
            )
        return cls(mean=arr.mean(axis=0), std=arr.std(axis=0))

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Standardise a feature vector or matrix."""
        arr = np.asarray(features, dtype=float)
        return (arr - self.mean) / self.std

    def to_dict(self) -> Dict[str, list]:
        """JSON-friendly representation."""
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, data: Dict[str, list]) -> "FeatureScaler":
        """Rebuild from :meth:`to_dict` output."""
        return cls(mean=np.asarray(data["mean"]), std=np.asarray(data["std"]))


#: One inference step: a dense layer (read live at every call) or an
#: activation function.
_Step = Tuple[Optional[Dense], Optional[Callable[[np.ndarray], np.ndarray]]]


def _inference_steps(model: Sequential) -> Tuple[_Step, ...]:
    """The layer chain of ``model`` as bare inference steps.

    Raises :class:`ConfigurationError` unless the chain is dense layers
    and activations whose widths chain from the five features.
    """
    steps = []
    width = N_FEATURES
    for index, layer in enumerate(model.layers):
        if isinstance(layer, Dense):
            if layer.in_features != width:
                raise ConfigurationError(
                    f"layer {index} expects {layer.in_features} inputs; "
                    f"the chain delivers {width}"
                )
            width = layer.out_features
            steps.append((layer, None))
        elif isinstance(layer, _Activation):
            steps.append((None, layer._fn))
        else:
            raise ConfigurationError(
                f"layer {index} ({type(layer).__name__}) has no inference "
                "path; expected Dense layers and activations"
            )
    return tuple(steps)


class NNPlanner:
    """A trained regression network behind the planner protocol.

    Inference computes the features and their standardisation in floats
    and runs the layers as bare ``x @ W + b`` and activation calls on the
    model's live arrays: exactly :meth:`Sequential.forward`'s arithmetic,
    without its input checks or training caches.  The scaler is read once,
    at construction.

    Parameters
    ----------
    model:
        Network mapping scaled features to a single acceleration output.
    scaler:
        Feature scaler fitted during training.
    window_estimator:
        The passing-window estimator whose output becomes the
        ``tau_{1,min/max}`` features.  Swap a conservative estimator for
        an aggressive one to move the same network between the basic and
        ultimate configurations.
    limits:
        Ego actuation limits; raw network output is clipped to them.
    oncoming_index:
        Vehicle index of the oncoming vehicle.
    """

    def __init__(
        self,
        model: Sequential,
        scaler: FeatureScaler,
        window_estimator: PassingWindowEstimator,
        limits: VehicleLimits,
        oncoming_index: int = 1,
    ) -> None:
        if scaler.mean.shape[0] != N_FEATURES:
            raise ConfigurationError(
                f"scaler expects {scaler.mean.shape[0]} features; the "
                f"planner produces {N_FEATURES}"
            )
        self._model = model
        self._scaler = scaler
        self._steps = _inference_steps(model)
        self._mean = tuple(scaler.mean.tolist())
        self._std = tuple(scaler.std.tolist())
        self._windows = window_estimator
        self._limits = limits
        self._oncoming_index = oncoming_index

    @property
    def model(self) -> Sequential:
        """The wrapped network."""
        return self._model

    @property
    def scaler(self) -> FeatureScaler:
        """The feature scaler."""
        return self._scaler

    @property
    def window_estimator(self) -> PassingWindowEstimator:
        """The estimator feeding the window features."""
        return self._windows

    def with_window_estimator(
        self, window_estimator: PassingWindowEstimator
    ) -> "NNPlanner":
        """A copy of this planner consulting a different estimator.

        The network and scaler are shared (they are read-only at
        inference time); only the feature source changes.
        """
        return NNPlanner(
            model=self._model,
            scaler=self._scaler,
            window_estimator=window_estimator,
            limits=self._limits,
            oncoming_index=self._oncoming_index,
        )

    # ------------------------------------------------------------------
    # Planner protocol
    # ------------------------------------------------------------------
    def plan(self, context: PlanningContext) -> float:
        """Window features -> scaled inference -> clipped acceleration."""
        window = self._windows.window(
            context.estimate_of(self._oncoming_index)
        )
        return self.plan_from_window(
            context.time, context.ego.position, context.ego.velocity, window
        )

    def plan_from_window(
        self, time: float, position: float, velocity: float, window: Interval
    ) -> float:
        """Inference on explicit inputs (mirrors the expert's API).

        Units: time [s], position [m], velocity [m/s] -> [m/s^2]
        """
        # planner_features and FeatureScaler.transform, in floats.
        if window.is_empty:
            rel_lo = rel_hi = WINDOW_PAST
        else:
            rel_lo = min(max(window.lo - time, WINDOW_PAST), WINDOW_FAR)
            rel_hi = min(max(window.hi - time, WINDOW_PAST), WINDOW_FAR)
        mean, std = self._mean, self._std
        x = np.array(
            [
                [
                    (time - mean[0]) / std[0],
                    (position - mean[1]) / std[1],
                    (velocity - mean[2]) / std[2],
                    (rel_lo - mean[3]) / std[3],
                    (rel_hi - mean[4]) / std[4],
                ]
            ]
        )
        for dense, activation in self._steps:
            if dense is None:
                x = activation(x)
            else:
                x = x @ dense.weight + dense.bias
        return self._limits.clip_acceleration(float(x[0, 0]))
