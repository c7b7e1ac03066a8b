"""Tests for feature extraction, scaling, and the NN planner wrapper."""

import numpy as np
import pytest

from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import PlanningContext
from repro.planners.nn_planner import (
    WINDOW_FAR,
    WINDOW_PAST,
    FeatureScaler,
    planner_features,
)
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.utils.intervals import Interval


class TestPlannerFeatures:
    def test_layout(self):
        f = planner_features(1.0, -20.0, 8.0, Interval(3.0, 6.0))
        assert f.shape == (5,)
        assert list(f[:3]) == [1.0, -20.0, 8.0]
        assert f[3] == pytest.approx(2.0)  # 3.0 - 1.0
        assert f[4] == pytest.approx(5.0)

    def test_empty_window_encoded_as_past(self):
        f = planner_features(2.0, 0.0, 0.0, Interval.EMPTY)
        assert f[3] == WINDOW_PAST
        assert f[4] == WINDOW_PAST

    def test_clipping(self):
        f = planner_features(0.0, 0.0, 0.0, Interval(100.0, 500.0))
        assert f[3] == WINDOW_FAR
        assert f[4] == WINDOW_FAR
        f = planner_features(100.0, 0.0, 0.0, Interval(1.0, 2.0))
        assert f[3] == WINDOW_PAST

    @pytest.mark.parametrize(
        "window",
        [
            Interval(3.0, 6.0),
            Interval(-40.0, 0.5),
            Interval(7.0, 120.0),
            Interval(-1e300, 1e300),
            Interval(-np.inf, np.inf),
            Interval(np.inf, np.inf),
            Interval(-np.inf, -np.inf),
            Interval(2.0, np.inf),
            Interval.EMPTY,
        ],
    )
    @pytest.mark.parametrize("time", [0.0, 2.0, 100.0])
    def test_clip_matches_numpy(self, window, time):
        f = planner_features(time, 1.0, 2.0, window)
        if window.is_empty:
            expected = [WINDOW_PAST, WINDOW_PAST]
        else:
            expected = [
                float(np.clip(edge - time, WINDOW_PAST, WINDOW_FAR))
                for edge in (window.lo, window.hi)
            ]
        assert list(f[3:]) == expected


class TestFeatureScaler:
    def test_fit_transform_standardises(self):
        rng = np.random.default_rng(0)
        data = rng.normal(loc=5.0, scale=3.0, size=(500, 5))
        scaler = FeatureScaler.fit(data)
        out = scaler.transform(data)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_passes_through(self):
        data = np.ones((10, 2))
        scaler = FeatureScaler.fit(data)
        out = scaler.transform(data)
        assert np.allclose(out, 0.0)

    def test_dict_roundtrip(self):
        scaler = FeatureScaler(mean=np.arange(5.0), std=np.ones(5))
        restored = FeatureScaler.from_dict(scaler.to_dict())
        assert np.allclose(restored.mean, scaler.mean)
        assert np.allclose(restored.std, scaler.std)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureScaler(mean=np.zeros(3), std=np.ones(4))

    def test_empty_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureScaler.fit(np.zeros((0, 5)))


class TestNNPlanner:
    def _planner(self, spec, scenario, aggressive=False):
        estimator = PassingWindowEstimator(
            scenario.geometry, scenario.oncoming_limits, aggressive=aggressive
        )
        return spec.build_planner(estimator, scenario.ego_limits)

    def _context(self, scenario):
        est = FusedEstimate(
            time=0.0,
            position=Interval.point(50.0),
            velocity=Interval.point(-10.0),
            nominal=VehicleState(position=50.0, velocity=-10.0),
        )
        return PlanningContext(
            time=0.0,
            ego=VehicleState(position=-30.0, velocity=10.0),
            estimates={1: est},
        )

    def test_output_within_limits(self, tiny_conservative_spec, scenario):
        planner = self._planner(tiny_conservative_spec, scenario)
        a = planner.plan(self._context(scenario))
        assert scenario.ego_limits.a_min <= a <= scenario.ego_limits.a_max

    def test_deterministic(self, tiny_conservative_spec, scenario):
        planner = self._planner(tiny_conservative_spec, scenario)
        ctx = self._context(scenario)
        assert planner.plan(ctx) == planner.plan(ctx)

    def test_with_window_estimator_shares_model(
        self, tiny_conservative_spec, scenario
    ):
        planner = self._planner(tiny_conservative_spec, scenario)
        other = planner.with_window_estimator(
            PassingWindowEstimator(
                scenario.geometry, scenario.oncoming_limits, aggressive=True
            )
        )
        assert other.model is planner.model
        assert other.scaler is planner.scaler
        assert other.window_estimator is not planner.window_estimator

    def test_different_estimators_can_differ_in_output(
        self, tiny_conservative_spec, scenario
    ):
        cons = self._planner(tiny_conservative_spec, scenario, aggressive=False)
        aggr = self._planner(tiny_conservative_spec, scenario, aggressive=True)
        ctx = self._context(scenario)
        # Same network; different window features. They need not always
        # differ, but plan_from_window on distinct windows must be what
        # drives any difference.
        w_cons = cons.window_estimator.window(ctx.estimates[1])
        w_aggr = aggr.window_estimator.window(ctx.estimates[1])
        assert w_cons != w_aggr

    def test_wrong_scaler_width_rejected(self, tiny_conservative_spec, scenario):
        from repro.planners.nn_planner import NNPlanner

        bad_scaler = FeatureScaler(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(ConfigurationError):
            NNPlanner(
                model=tiny_conservative_spec.model,
                scaler=bad_scaler,
                window_estimator=PassingWindowEstimator(
                    scenario.geometry, scenario.oncoming_limits
                ),
                limits=scenario.ego_limits,
            )
