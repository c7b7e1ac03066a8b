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
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError
from repro.nn.layers import Dense, Sequential, inference_steps, layer_chain
from repro.filtering.fusion import FusedEstimate
from repro.obs.observer import traced_call
from repro.planners.base import PlanningContext, no_estimate_error
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.scenarios.left_turn.unsafe_set import LeftTurnSafetyModel
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


class NNPlanner:
    """A trained regression network behind the planner protocol.

    Inference computes the features and their standardisation in floats
    and runs the layers on one 1-D row, built from a tuple, on the
    model's live arrays: ``np.dot(x, W)``, then ``x += b`` and the
    activation in place on that fresh product
    (:func:`~repro.nn.layers.inference_steps`), and a final one-unit
    dense layer as one float addition.  That is exactly
    :meth:`Sequential.forward`'s arithmetic on a batch of one, without
    its input checks, training caches or temporaries.  The scaler is
    read once, at construction.

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
        steps = inference_steps(layer_chain(model, N_FEATURES))
        # A final one-unit dense layer with no activation runs in floats.
        self._head: Optional[Dense] = None
        if steps:
            dense, activation = steps[-1]
            if dense is not None and activation is None and dense.out_features == 1:
                self._head = dense
                steps = steps[:-1]
        self._steps = steps
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
        """:meth:`plan_floats` on a :class:`PlanningContext`.

        Exists only because ``benchmarks/engine/layers.py`` wraps it by
        name (its ``shield.nn`` layer); nothing in ``repro`` calls it.
        """
        ego = context.ego
        return self.plan_floats(
            context.time, ego.position, ego.velocity, ego.acceleration,
            context.estimates,
        )

    def plan_floats(
        self,
        time: float,
        position: float,
        velocity: float,
        acceleration: float,
        estimates: Mapping[int, FusedEstimate],
        tracer=None,
        window: Optional[Tuple[float, float]] = None,
    ) -> float:
        """Window features -> scaled inference -> clipped acceleration.

        With a ``tracer``, the call is timed in a ``shield.nn`` span.

        Units: time [s], position [m], velocity [m/s], acceleration [m/s^2]
        Units: -> [m/s^2]

        The features do not include the ego's acceleration.

        ``window`` is the oncoming window as ``(lo, hi)`` when the caller
        already evaluated it with this planner's estimator (see
        :meth:`shares_window_with`); otherwise it is computed here.
        """
        if tracer is not None:
            return traced_call(
                tracer, "shield.nn", self.plan_floats,
                time, position, velocity, acceleration, estimates, None, window,
            )
        if window is None:
            try:
                estimate = estimates[self._oncoming_index]
            except KeyError as exc:
                raise no_estimate_error(self._oncoming_index) from exc
            window = self._windows.bounds(estimate)
        return self._infer(time, position, velocity, window[0], window[1])

    def shares_window_with(self, model) -> bool:
        """Whether ``model``'s conflict window is this planner's window.

        True for a :class:`LeftTurnSafetyModel` whose window is Eq. (7)
        (not overridden) over the same geometry, oncoming limits and
        vehicle index as this planner's conservative estimator: the
        window the monitor evaluates is then the one :meth:`plan_floats`
        would compute, and a caller may pass it in.
        """
        windows = self._windows
        return (
            isinstance(model, LeftTurnSafetyModel)
            and type(model).oncoming_bounds is LeftTurnSafetyModel.oncoming_bounds
            and not windows.aggressive
            and model.geometry == windows.geometry
            and model.oncoming_limits == windows.limits
            and model.oncoming_index == self._oncoming_index
        )

    def plan_from_window(
        self, time: float, position: float, velocity: float, window: Interval
    ) -> float:
        """Inference on explicit inputs (mirrors the expert's API).

        Units: time [s], position [m], velocity [m/s] -> [m/s^2]
        """
        return self._infer(time, position, velocity, window.lo, window.hi)

    def _infer(
        self, time: float, position: float, velocity: float, lo: float, hi: float
    ) -> float:
        """Inference on the window's float bounds (empty if ``lo > hi``).

        Units: time [s], position [m], velocity [m/s], lo [s], hi [s]
        Units: -> [m/s^2]
        """
        # planner_features and FeatureScaler.transform, in floats; the
        # clips min(max(rel, WINDOW_PAST), WINDOW_FAR) as conditionals.
        if lo > hi:
            rel_lo = rel_hi = WINDOW_PAST
        else:
            rel_lo = lo - time
            rel_lo = WINDOW_PAST if WINDOW_PAST > rel_lo else rel_lo
            rel_lo = WINDOW_FAR if WINDOW_FAR < rel_lo else rel_lo
            rel_hi = hi - time
            rel_hi = WINDOW_PAST if WINDOW_PAST > rel_hi else rel_hi
            rel_hi = WINDOW_FAR if WINDOW_FAR < rel_hi else rel_hi
        mean, std = self._mean, self._std
        # One 1-D row: ``x.dot(W)`` (``np.dot`` without its dispatch) on
        # it is the batch-of-one row of Sequential.forward (``x @ W`` bit
        # for bit, at less cost); the bias and the activation go onto
        # the fresh product.
        x = np.array(
            (
                (time - mean[0]) / std[0],
                (position - mean[1]) / std[1],
                (velocity - mean[2]) / std[2],
                (rel_lo - mean[3]) / std[3],
                (rel_hi - mean[4]) / std[4],
            )
        )
        for dense, activation in self._steps:
            if dense is not None:
                x = x.dot(dense.weight)
                x += dense.bias
            if activation is not None:
                x = activation(x)
        head = self._head
        if head is None:
            return self._limits.clip_acceleration(float(x[0]))
        # The one-unit output layer in floats: the same single addition.
        return self._limits.clip_acceleration(
            x.dot(head.weight).item() + head.bias.item()
        )
