"""Failure-injection tests: the compound planner under pathological inputs.

The framework's promise is that the monitor + emergency planner are the
"last line of defense" regardless of the embedded planner or the
environment.  These tests inject the failures a deployment would see —
broken networks, garbage sensors, adversarial or numerically broken
planners — and assert safety survives all of them.
"""

import math

import pytest

from repro.comm.faults import messages_lost, no_disturbance
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import BatchRunner, EstimatorKind

N_RUNS = 15


class NaNPlanner:
    """A numerically broken planner: always NaN."""

    def plan_floats(self, time, position, velocity, acceleration, estimates, tracer=None) -> float:
        return math.nan


class InfPlanner:
    """A numerically broken planner: always +inf."""

    def plan_floats(self, time, position, velocity, acceleration, estimates, tracer=None) -> float:
        return math.inf


class OscillatingPlanner:
    """Worst-case chattering: alternates full throttle and full brake."""

    def __init__(self, limits):
        self._limits = limits
        self._flip = False

    def plan_floats(self, time, position, velocity, acceleration, estimates, tracer=None) -> float:
        self._flip = not self._flip
        return self._limits.a_max if self._flip else self._limits.a_min


class AdversarialMonitorProbe:
    """Accelerates exactly when near the unsafe area, brakes elsewhere.

    Designed to probe the boundary set: it pushes hardest where pushing
    is most dangerous.
    """

    def __init__(self, scenario):
        self._scenario = scenario

    def plan_floats(self, time, position, velocity, acceleration, estimates, tracer=None) -> float:
        distance = self._scenario.geometry.ego_distance_to_front(position)
        limits = self._scenario.ego_limits
        if -5.0 < distance < 15.0:
            return limits.a_max
        return 1.0


def _compound(scenario, embedded):
    return CompoundPlanner(
        nn_planner=embedded,
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
    )


def _engine(scenario, comm):
    return SimulationEngine(
        scenario,
        comm,
        SimulationConfig(max_time=30.0, record_trajectories=False),
    )


GOOD_COMM = CommSetup(
    0.1, 0.1, no_disturbance(), NoiseBounds.uniform_all(1.0)
)
#: Total communication blackout with near-useless sensors.
AWFUL_COMM = CommSetup(
    0.1, 0.1, messages_lost(), NoiseBounds.uniform_all(5.0)
)


class TestBrokenPlanners:
    @pytest.mark.parametrize("planner_cls", [NaNPlanner, InfPlanner])
    def test_numerically_broken_planner_is_contained(
        self, scenario, planner_cls
    ):
        planner = _compound(scenario, planner_cls())
        results = BatchRunner(
            _engine(scenario, GOOD_COMM), EstimatorKind.FILTERED
        ).run_batch(planner, N_RUNS, seed=300)
        assert all(r.outcome is not Outcome.COLLISION for r in results)

    def test_nan_planner_alone_is_sanitised_to_braking(self, scenario):
        # Even unwrapped, the compound's clipping maps NaN to full brake,
        # so the NaN planner just parks the vehicle: timeout, no crash.
        planner = _compound(scenario, NaNPlanner())
        result = BatchRunner(
            _engine(scenario, GOOD_COMM), EstimatorKind.FILTERED
        ).run_one(planner, seed=1)
        assert result.outcome in (Outcome.TIMEOUT, Outcome.REACHED)

    def test_oscillating_planner_is_contained(self, scenario):
        planner = _compound(
            scenario, OscillatingPlanner(scenario.ego_limits)
        )
        results = BatchRunner(
            _engine(scenario, GOOD_COMM), EstimatorKind.FILTERED
        ).run_batch(planner, N_RUNS, seed=301)
        assert all(r.outcome is not Outcome.COLLISION for r in results)

    def test_adversarial_probe_is_contained(self, scenario):
        planner = _compound(scenario, AdversarialMonitorProbe(scenario))
        results = BatchRunner(
            _engine(scenario, GOOD_COMM), EstimatorKind.FILTERED
        ).run_batch(planner, N_RUNS, seed=302)
        assert all(r.outcome is not Outcome.COLLISION for r in results)


class TestBrokenEnvironment:
    def test_blackout_with_terrible_sensors(self, scenario):
        """No messages, sensors at 5x the paper's worst uncertainty."""
        planner = _compound(scenario, AdversarialMonitorProbe(scenario))
        for kind in (EstimatorKind.RAW, EstimatorKind.FILTERED):
            results = BatchRunner(
                _engine(scenario, AWFUL_COMM), kind
            ).run_batch(planner, N_RUNS, seed=303)
            assert all(
                r.outcome is not Outcome.COLLISION for r in results
            )

    def test_blackout_costs_efficiency_not_safety(
        self, scenario, tiny_aggressive_spec
    ):
        from repro.scenarios.left_turn.passing_time import (
            PassingWindowEstimator,
        )

        nn = tiny_aggressive_spec.build_planner(
            PassingWindowEstimator(
                scenario.geometry, scenario.oncoming_limits, aggressive=True
            ),
            scenario.ego_limits,
        )
        good = BatchRunner(
            _engine(scenario, GOOD_COMM), EstimatorKind.FILTERED
        ).run_batch(_compound(scenario, nn), N_RUNS, seed=304)
        awful = BatchRunner(
            _engine(scenario, AWFUL_COMM), EstimatorKind.FILTERED
        ).run_batch(_compound(scenario, nn), N_RUNS, seed=304)
        assert all(r.is_safe for r in good)
        assert all(r.is_safe for r in awful)
        good_reached = [r for r in good if r.outcome is Outcome.REACHED]
        awful_reached = [r for r in awful if r.outcome is Outcome.REACHED]
        if good_reached and awful_reached:
            mean_good = sum(r.reaching_time for r in good_reached) / len(
                good_reached
            )
            mean_awful = sum(r.reaching_time for r in awful_reached) / len(
                awful_reached
            )
            assert mean_awful >= mean_good - 0.25


class TestSlowSchedules:
    def test_sparse_sensing_and_messaging_still_safe(self, scenario):
        """1.6 s between updates (32 control steps of blindness)."""
        comm = CommSetup(
            dt_m=1.6,
            dt_s=1.6,
            faults=no_disturbance(),
            sensor_bounds=NoiseBounds.uniform_all(2.0),
        )
        planner = _compound(scenario, AdversarialMonitorProbe(scenario))
        results = BatchRunner(
            _engine(scenario, comm), EstimatorKind.FILTERED
        ).run_batch(planner, N_RUNS, seed=305)
        assert all(r.outcome is not Outcome.COLLISION for r in results)
