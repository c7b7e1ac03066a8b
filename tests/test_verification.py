"""Tests for the safety certification harness."""

import pytest

from repro.comm.faults import messages_lost, no_disturbance
from repro.core.verification import (
    AdversarialPlanner,
    CertificationReport,
    Violation,
    adversarial_suite,
    certify,
)
from repro.scenarios.car_following import CarFollowingScenario
from repro.scenarios.left_turn.multi import MultiOncomingLeftTurnScenario
from repro.scenarios.signalized import SignalizedCrossingScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup
from repro.sim.runner import EstimatorKind


def _comms():
    return [
        CommSetup(0.1, 0.1, no_disturbance(), NoiseBounds.uniform_all(1.0)),
        CommSetup(0.1, 0.1, messages_lost(), NoiseBounds.uniform_all(3.0)),
    ]


class TestAdversarialSuite:
    def test_contains_expected_battery(self, scenario):
        suite = adversarial_suite(scenario.ego_limits)
        names = {p.name for p in suite}
        assert names == {
            "full_throttle",
            "full_brake",
            "oscillate",
            "nan",
            "random_bang",
        }

    def test_planners_produce_floats(self, scenario):
        import math

        from repro.dynamics.state import VehicleState
        from repro.planners.base import PlanningContext

        ctx = PlanningContext(
            time=0.0, ego=VehicleState(position=0.0, velocity=5.0)
        )
        for planner in adversarial_suite(scenario.ego_limits):
            value = planner.plan(ctx)
            assert isinstance(value, float)
            if planner.name != "nan":
                assert math.isfinite(value)


class TestCertifyLeftTurn:
    @pytest.fixture(scope="class")
    def report(self, scenario):
        return certify(scenario, _comms(), n_runs=6, seed=7)

    def test_certified(self, report):
        assert report.certified
        assert report.violations == []

    def test_episode_accounting(self, report):
        # 2 comms x 2 estimator kinds x 5 planners x 6 runs.
        assert report.episodes_run == 2 * 2 * 5 * 6

    def test_render(self, report):
        text = report.render()
        assert "CERTIFIED" in text
        assert "LeftTurnScenario" in text


class TestCertifyCarFollowing:
    def test_certified(self):
        scenario = CarFollowingScenario()
        report = certify(
            scenario,
            [_comms()[0]],
            n_runs=5,
            seed=9,
            max_time=15.0,
        )
        assert report.certified


class TestCertifyMultiOncoming:
    def test_certified(self):
        report = certify(
            MultiOncomingLeftTurnScenario(),
            _comms(),
            n_runs=3,
            seed=5,
            max_time=15.0,
        )
        assert report.episodes_run == 2 * 2 * 5 * 3
        assert report.certified, report.render()


class TestCertifySignalized:
    @pytest.mark.parametrize("offset", [0.0, 2.5, 5.0, 9.0])
    def test_certified(self, offset):
        # The scenario is deterministic: the light's phase is what varies.
        scenario = SignalizedCrossingScenario().with_offset(offset)
        report = certify(scenario, [_comms()[0]], n_runs=1, seed=3, max_time=20.0)
        assert report.certified, report.render()


class TestFailureReporting:
    def test_violations_render(self):
        report = CertificationReport(
            scenario_name="Broken",
            episodes_run=10,
            episodes_per_cell=5,
            violations=[
                Violation(
                    planner_name="full_throttle",
                    comm_index=0,
                    estimator_kind=EstimatorKind.RAW,
                    seed_index=3,
                    collision_time=2.5,
                )
            ],
        )
        assert not report.certified
        text = report.render()
        assert "FAILED" in text
        assert "full_throttle" in text
        assert "seed_index=3" in text

    def test_custom_planner_override(self, scenario):
        gentle = AdversarialPlanner("gentle", lambda c: 0.5)
        report = certify(
            scenario,
            [_comms()[0]],
            n_runs=3,
            seed=1,
            planners=[gentle],
        )
        assert report.episodes_run == 2 * 1 * 3  # 2 estimator kinds
        assert report.certified
