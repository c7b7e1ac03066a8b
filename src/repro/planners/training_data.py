"""Demonstration generation for imitation learning.

The NN planners are trained to imitate the rule-based experts of
:mod:`repro.planners.expert` (the substitution DESIGN.md §2 documents).
Two demonstration sources are mixed:

* **state-space sampling** — uniform random ``(t, p_0, v_0, window)``
  tuples labelled by the expert's decision law, covering the feature
  space broadly;
* **on-policy rollouts** — closed-loop episodes where the ego follows
  the expert against a randomly driven oncoming vehicle with perfect
  information, concentrating data on the states the planner actually
  visits (the classic way to avoid imitation drift).

Both produce ``(features, accelerations)`` pairs in the
:func:`repro.planners.nn_planner.planner_features` encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dynamics.profiles import RandomSequenceProfile
from repro.dynamics.vehicle import VehicleModel
from repro.errors import ConfigurationError
from repro.filtering.fusion import FusedEstimate
from repro.planners.expert import LeftTurnExpertPlanner
from repro.planners.nn_planner import (
    N_FEATURES,
    WINDOW_FAR,
    WINDOW_PAST,
    planner_features,
)
from repro.utils.intervals import Interval
from repro.utils.rng import RngStream

__all__ = ["DemonstrationConfig", "generate_demonstrations"]


@dataclass(frozen=True, slots=True)
class DemonstrationConfig:
    """Demonstration-set sizes and sampling ranges.

    Attributes
    ----------
    n_random:
        Number of state-space samples.
    n_rollouts:
        Number of on-policy episodes.
    rollout_dt:
        Control step of the rollouts.
    rollout_horizon:
        Episode cap, seconds.
    empty_window_fraction:
        Fraction of random samples drawn with an empty (no-conflict)
        window so the GO branch is represented.
    p0_range, v0_range, t_range:
        Sampling ranges of the ego state and clock.
    oncoming_start_range:
        Range of the oncoming vehicle's initial position in rollouts.
    oncoming_speed_range:
        Range of its initial speed (m/s, positive = toward the area).
    """

    n_random: int = 4000
    n_rollouts: int = 40
    rollout_dt: float = 0.05
    rollout_horizon: float = 25.0
    empty_window_fraction: float = 0.15
    p0_range: Tuple[float, float] = (-35.0, 25.0)
    v0_range: Tuple[float, float] = (0.0, 20.0)
    t_range: Tuple[float, float] = (0.0, 20.0)
    oncoming_start_range: Tuple[float, float] = (45.0, 65.0)
    oncoming_speed_range: Tuple[float, float] = (8.0, 14.0)

    def __post_init__(self) -> None:
        if self.n_random < 0 or self.n_rollouts < 0:
            raise ConfigurationError("sample counts must be nonnegative")
        if self.n_random == 0 and self.n_rollouts == 0:
            raise ConfigurationError("at least one demonstration source needed")
        if not 0.0 <= self.empty_window_fraction <= 1.0:
            raise ConfigurationError(
                "empty_window_fraction must be in [0, 1]"
            )


def generate_demonstrations(
    expert: LeftTurnExpertPlanner,
    config: DemonstrationConfig,
    rng: RngStream,
) -> Tuple[np.ndarray, np.ndarray]:
    """Produce ``(features, labels)`` arrays from the expert.

    Effects: mutates-args, draws-rng

    Returns
    -------
    tuple
        ``features`` of shape ``(n, 5)`` (unscaled) and ``labels`` of
        shape ``(n, 1)`` (expert accelerations).
    """
    feature_rows = []
    label_rows = []

    if config.n_random > 0:
        f, y = _random_samples(expert, config, rng.child())
        feature_rows.append(f)
        label_rows.append(y)
    if config.n_rollouts > 0:
        f, y = _rollout_samples(expert, config, rng.child())
        feature_rows.append(f)
        label_rows.append(y)

    features = np.vstack(feature_rows)
    labels = np.vstack(label_rows)
    return features, labels


def _random_samples(
    expert: LeftTurnExpertPlanner,
    config: DemonstrationConfig,
    rng: RngStream,
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniformly sampled (state, window) pairs labelled by the expert.

    Effects: mutates-args, draws-rng
    """
    n = config.n_random
    features = np.empty((n, 5))
    labels = np.empty((n, 1))
    for i in range(n):
        t = float(rng.uniform(*config.t_range))
        p0 = float(rng.uniform(*config.p0_range))
        v0 = float(rng.uniform(*config.v0_range))
        if rng.bernoulli(config.empty_window_fraction):
            window = Interval.EMPTY
        else:
            rel_lo = float(rng.uniform(WINDOW_PAST, 25.0))
            rel_hi = rel_lo + float(rng.uniform(0.5, 20.0))
            rel_hi = min(rel_hi, WINDOW_FAR)
            window = Interval(t + rel_lo, t + rel_hi)
        features[i] = planner_features(t, p0, v0, window)
        labels[i, 0] = expert.plan_from_window(t, p0, v0, window)
    return features, labels


def _rollout_samples(
    expert: LeftTurnExpertPlanner,
    config: DemonstrationConfig,
    rng: RngStream,
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-loop expert episodes with perfect information.

    The oncoming vehicle follows a random acceleration sequence (the
    paper's evaluation workload); the expert sees its *true* state, so
    the demonstrations capture the expert's intended behaviour rather
    than estimator noise.

    Effects: mutates-args, draws-rng
    """
    geometry = expert.window_estimator.geometry
    oncoming_limits = expert.window_estimator.limits
    ego_model = VehicleModel(expert.limits)
    oncoming_model = VehicleModel(oncoming_limits)
    dt = config.rollout_dt
    n_steps = int(round(config.rollout_horizon / dt))

    # Preallocated to the worst case (every rollout runs the full
    # horizon); a rollout that reaches the target early just leaves
    # rows unused, and the tail is sliced off before returning.  The
    # previous append-a-list-then-np.asarray version was safeflow's
    # first real SFL302 catch.
    capacity = config.n_rollouts * n_steps
    features = np.empty((capacity, N_FEATURES), dtype=float)
    labels = np.empty((capacity, 1), dtype=float)
    filled = 0
    for _ in range(config.n_rollouts):
        episode_rng = rng.child()
        ego_p = -30.0
        ego_v = float(episode_rng.uniform(4.0, 10.0))
        on_p = float(episode_rng.uniform(*config.oncoming_start_range))
        on_v = -float(episode_rng.uniform(*config.oncoming_speed_range))
        on_a = 0.0
        profile = RandomSequenceProfile(episode_rng.child())
        for step in range(n_steps):
            t = step * dt
            # The true state as a zero-uncertainty estimate.
            estimate = FusedEstimate.of(t, on_p, on_p, on_v, on_v, on_p, on_v, on_a, 0.0)
            window = expert.window_estimator.window(estimate)
            accel = expert.plan_from_window(t, ego_p, ego_v, window)
            features[filled] = planner_features(t, ego_p, ego_v, window)
            labels[filled, 0] = accel
            filled += 1
            ego_p, ego_v, _ = ego_model.advance(ego_p, ego_v, accel, dt)
            oncoming_accel = profile(step, t, on_p, on_v, on_a)
            on_p, on_v, on_a = oncoming_model.advance(on_p, on_v, oncoming_accel, dt)
            if geometry.ego_reached_target(ego_p):
                break
    return features[:filled].copy(), labels[:filled].copy()
