"""Tests for the planner protocol helpers and trivial planners."""

import math

import pytest

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import PlannerError
from repro.filtering.fusion import FusedEstimate
from repro.planners.base import Planner, PlanningContext, clipped
from repro.planners.constant import (
    ConstantPlanner,
    FullBrakePlanner,
    FullThrottlePlanner,
)

LIMITS = VehicleLimits(v_min=0.0, v_max=20.0, a_min=-6.0, a_max=4.0)


def _context():
    est = FusedEstimate(0.0, 40.0, 42.0, -12.0, -10.0, p=41.0, v=-11.0, a=0.0)
    return PlanningContext(
        time=0.0,
        ego=VehicleState(position=-30.0, velocity=10.0),
        estimates={1: est},
    )


def _floats():
    """The ego floats and estimates of :func:`_context`."""
    context = _context()
    ego = context.ego
    return context.time, ego.position, ego.velocity, ego.acceleration, context.estimates


class TestPlanningContext:
    def test_estimate_of(self):
        assert _context().estimate_of(1).p == 41.0  # safelint: disable=SFL001 - verbatim constant

    def test_missing_estimate_raises(self):
        with pytest.raises(PlannerError):
            _context().estimate_of(2)

    def test_default_estimates_empty(self):
        ctx = PlanningContext(
            time=0.0, ego=VehicleState(position=0.0, velocity=0.0)
        )
        assert ctx.estimates == {}


class TestClipped:
    def test_in_range_passthrough(self):
        assert clipped(1.5, LIMITS) == 1.5

    def test_clipping(self):
        assert clipped(100.0, LIMITS) == 4.0
        assert clipped(-100.0, LIMITS) == -6.0

    def test_nan_maps_to_full_brake(self):
        assert clipped(math.nan, LIMITS) == -6.0

    def test_positive_infinity_maps_to_full_throttle(self):
        assert clipped(math.inf, LIMITS) == 4.0

    def test_negative_infinity_maps_to_full_brake(self):
        assert clipped(-math.inf, LIMITS) == -6.0


class TestTrivialPlanners:
    def test_constant(self):
        assert ConstantPlanner(1.2).plan_floats(*_floats()) == 1.2

    def test_full_brake(self):
        assert FullBrakePlanner(LIMITS).plan_floats(*_floats()) == -6.0

    def test_full_throttle(self):
        assert FullThrottlePlanner(LIMITS).plan_floats(*_floats()) == 4.0

    def test_satisfy_protocol(self):
        for planner in (
            ConstantPlanner(0.0),
            FullBrakePlanner(LIMITS),
            FullThrottlePlanner(LIMITS),
        ):
            assert isinstance(planner, Planner)
