"""Tests for demonstration generation."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.planners.factory import build_expert
from repro.planners.training_data import (
    DemonstrationConfig,
    generate_demonstrations,
)
from repro.utils.rng import RngStream


@pytest.fixture(scope="module")
def expert(scenario_module):
    return build_expert(
        "conservative",
        scenario_module.geometry,
        scenario_module.ego_limits,
        scenario_module.oncoming_limits,
    )


@pytest.fixture(scope="module")
def scenario_module():
    from repro.scenarios.left_turn.scenario import LeftTurnScenario

    return LeftTurnScenario()


class TestConfigValidation:
    def test_zero_everything_rejected(self):
        with pytest.raises(ConfigurationError):
            DemonstrationConfig(n_random=0, n_rollouts=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            DemonstrationConfig(n_random=-1)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            DemonstrationConfig(empty_window_fraction=1.5)


class TestGeneration:
    def test_shapes(self, expert):
        cfg = DemonstrationConfig(n_random=50, n_rollouts=2)
        x, y = generate_demonstrations(expert, cfg, RngStream(0))
        assert x.ndim == 2 and x.shape[1] == 5
        assert y.shape == (x.shape[0], 1)
        assert x.shape[0] >= 50

    def test_random_only(self, expert):
        cfg = DemonstrationConfig(n_random=30, n_rollouts=0)
        x, y = generate_demonstrations(expert, cfg, RngStream(1))
        assert x.shape[0] == 30

    def test_rollout_only(self, expert):
        cfg = DemonstrationConfig(n_random=0, n_rollouts=2)
        x, y = generate_demonstrations(expert, cfg, RngStream(2))
        assert x.shape[0] > 0

    def test_labels_within_actuation_limits(self, expert):
        cfg = DemonstrationConfig(n_random=100, n_rollouts=2)
        _, y = generate_demonstrations(expert, cfg, RngStream(3))
        assert np.all(y >= expert.limits.a_min - 1e-9)
        assert np.all(y <= expert.limits.a_max + 1e-9)

    def test_reproducible(self, expert):
        cfg = DemonstrationConfig(n_random=40, n_rollouts=1)
        x1, y1 = generate_demonstrations(expert, cfg, RngStream(4))
        x2, y2 = generate_demonstrations(expert, cfg, RngStream(4))
        assert np.allclose(x1, x2)
        assert np.allclose(y1, y2)

    def test_different_seeds_differ(self, expert):
        cfg = DemonstrationConfig(n_random=40, n_rollouts=0)
        x1, _ = generate_demonstrations(expert, cfg, RngStream(5))
        x2, _ = generate_demonstrations(expert, cfg, RngStream(6))
        assert not np.allclose(x1, x2)

    def test_empty_windows_present(self, expert):
        from repro.planners.nn_planner import WINDOW_PAST

        cfg = DemonstrationConfig(
            n_random=200, n_rollouts=0, empty_window_fraction=0.5
        )
        x, _ = generate_demonstrations(expert, cfg, RngStream(7))
        n_empty = int(np.sum(x[:, 3] == WINDOW_PAST))
        assert 50 < n_empty < 150


#: SHA-256 of ``(features, labels)`` bytes of each style's demonstrations
#: at ``ExperimentConfig()``, as ``train_left_turn_planner`` draws them.
#: The paper planners are trained on exactly these bytes.
_PAPER_DEMO_SHA256 = {
    "conservative": (
        "6be3b94724e39c3e50a122016043191aa81efda7f56b5188b140775e8cfe0e0b",
        "ba13a2f7c12a2d832c1400ed488fc6a56f945c72f827ac08786586c83ccc949e",
    ),
    "aggressive": (
        "792e22e4b78b784626e059d5861b21a69e7eb85e84a94d138fa160ac41da7e0e",
        "c0a2c3c50e59deafe5e994ffa5f9681d6c93e75413881e500444fa70566c2bd6",
    ),
}


class TestPaperDemonstrationsPinned:
    @pytest.mark.parametrize("style", sorted(_PAPER_DEMO_SHA256))
    def test_bytes_pinned(self, style):
        config = ExperimentConfig()
        scenario = config.scenario()
        expert = build_expert(
            style,
            scenario.geometry,
            scenario.ego_limits,
            scenario.oncoming_limits,
            a_buf=config.a_buf,
            v_buf=config.v_buf,
        )
        rng = RngStream(config.training_seed)
        x, y = generate_demonstrations(expert, config.demo_config, rng.child())
        digests = (
            hashlib.sha256(x.tobytes()).hexdigest(),
            hashlib.sha256(y.tobytes()).hexdigest(),
        )
        assert digests == _PAPER_DEMO_SHA256[style]
