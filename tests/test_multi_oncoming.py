"""Tests for the multi-oncoming-vehicle left-turn extension."""

import pytest

from repro.comm.faults import messages_delayed
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.dynamics.state import VehicleState
from repro.errors import ScenarioError
from repro.filtering.fusion import FusedEstimate
from repro.scenarios.base import Scenario
from repro.scenarios.left_turn.multi import (
    GapAcceptanceExpert,
    MultiOncomingLeftTurnScenario,
    MultiOncomingSafetyModel,
    merge_windows,
)
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import BatchRunner, EstimatorKind
from repro.utils.intervals import Interval
from repro.utils.rng import RngStream


@pytest.fixture(scope="module")
def platoon():
    return MultiOncomingLeftTurnScenario(n_oncoming=2)


def _estimate(time, position, velocity):
    return FusedEstimate(
        time=time,
        position=Interval.point(position),
        velocity=Interval.point(velocity),
        nominal=VehicleState(position=position, velocity=velocity),
    )


class TestMergeWindows:
    def test_disjoint_stay_separate(self):
        merged = merge_windows([Interval(0, 1), Interval(3, 4)])
        assert merged == [Interval(0, 1), Interval(3, 4)]

    def test_overlapping_merge(self):
        merged = merge_windows([Interval(0, 2), Interval(1, 4)])
        assert merged == [Interval(0, 4)]

    def test_touching_merge(self):
        merged = merge_windows([Interval(0, 2), Interval(2, 4)])
        assert merged == [Interval(0, 4)]

    def test_unsorted_input(self):
        merged = merge_windows([Interval(5, 6), Interval(0, 1)])
        assert merged == [Interval(0, 1), Interval(5, 6)]

    def test_empty_windows_dropped(self):
        assert merge_windows([Interval.EMPTY, Interval(0, 1)]) == [
            Interval(0, 1)
        ]

    def test_all_empty(self):
        assert merge_windows([Interval.EMPTY]) == []

    def test_nested_absorbed(self):
        merged = merge_windows([Interval(0, 10), Interval(2, 3)])
        assert merged == [Interval(0, 10)]


class TestScenario:
    def test_protocol(self, platoon):
        assert isinstance(platoon, Scenario)

    def test_vehicle_count(self, platoon):
        assert platoon.n_vehicles == 3
        assert platoon.oncoming_indices == (1, 2)

    def test_staggered_starts(self, platoon):
        state = platoon.initial_state(RngStream(0))
        p1 = state.vehicle(1).position
        p2 = state.vehicle(2).position
        assert p2 == pytest.approx(p1 + platoon.spacing)

    def test_collision_against_any(self, platoon):
        positions = [10.0, 30.0, 60.0]  # ego inside
        assert not platoon.is_collision_at(0.0, positions)
        positions[2] = 10.0
        assert platoon.is_collision_at(0.0, positions)

    def test_validation(self):
        from repro.errors import ReproError

        with pytest.raises(ScenarioError):
            MultiOncomingLeftTurnScenario(n_oncoming=0)
        with pytest.raises(ReproError):
            MultiOncomingLeftTurnScenario(spacing=0.0)


class TestSafetyModel:
    def test_disjunction(self, platoon):
        model = platoon.safety_model()
        assert isinstance(model, MultiOncomingSafetyModel)
        # Slack inside the one-step margin band while vehicle 2's
        # window overlaps the ego's projected crossing.
        estimates = {
            1: _estimate(0.0, 3.0, -12.0),  # cleared
            2: _estimate(0.0, 18.0, -12.0),  # imminent
        }
        assert model.decide(0.0, 4.0, 3.0, estimates)[0]
        # Both cleared: free to go.
        estimates[2] = _estimate(0.0, 3.5, -12.0)
        assert not model.decide(0.0, 4.0, 3.0, estimates)[0]

    def test_requires_vehicles(self, platoon):
        with pytest.raises(ScenarioError):
            MultiOncomingSafetyModel(
                geometry=platoon.geometry,
                ego_limits=platoon.ego_limits,
                oncoming_limits=platoon.oncoming_limits,
                dt_c=platoon.dt_c,
                oncoming_indices=(),
            )


class TestGapAcceptance:
    def test_goes_through_open_gap(self, platoon):
        expert = platoon.gap_expert(aggressive=False)
        # Both vehicles far away and slow: huge first gap.
        estimates = {
            1: _estimate(0.0, 3.0, -12.0),  # cleared
            2: _estimate(0.0, 3.5, -12.0),  # cleared
        }
        command = expert.plan_floats(0.0, -5.0, 8.0, 0.0, estimates)
        assert command == expert.config.go_accel

    def test_yields_into_blocked_gap(self, platoon):
        expert = platoon.gap_expert(aggressive=False)
        estimates = {
            1: _estimate(0.0, 30.0, -12.0),
            2: _estimate(0.0, 55.0, -12.0),
        }
        assert expert.plan_floats(0.0, -3.0, 12.0, 0.0, estimates) < 0.0

    def test_single_vehicle_reduces_to_expert_decision(self):
        single = MultiOncomingLeftTurnScenario(n_oncoming=1)
        gap = single.gap_expert(aggressive=False)
        from repro.planners.expert import LeftTurnExpertPlanner

        classic = LeftTurnExpertPlanner(
            geometry=single.geometry,
            limits=single.ego_limits,
            window_estimator=gap._windows,  # same estimator
            config=gap.config,
        )
        for p0, v0, p1 in [(-30.0, 10.0, 50.0), (-10.0, 8.0, 30.0),
                            (-5.0, 12.0, 60.0)]:
            estimates = {1: _estimate(0.0, p1, -11.0)}
            window = gap._windows.window(estimates[1])
            go_classic = classic.should_go(0.0, p0, v0, window)
            a_gap = gap.plan_floats(0.0, p0, v0, 0.0, estimates)
            if go_classic:
                assert a_gap >= 0.0
            # (The gap expert may be marginally stricter the other way;
            # equality of the GO region is only guaranteed one-sided.)

    def test_needs_vehicles(self, platoon):
        with pytest.raises(ScenarioError):
            GapAcceptanceExpert(
                geometry=platoon.geometry,
                limits=platoon.ego_limits,
                window_estimator=platoon.gap_expert()._windows,
                config=platoon.gap_expert().config,
                oncoming_indices=(),
            )


class TestClosedLoopSafety:
    def test_shielded_gap_expert_never_collides(self, platoon):
        engine = SimulationEngine(
            platoon,
            CommSetup(
                0.1,
                0.1,
                messages_delayed(0.25, 0.4),
                NoiseBounds.uniform_all(1.0),
            ),
            SimulationConfig(max_time=30.0, record_trajectories=False),
        )
        planner = CompoundPlanner(
            nn_planner=platoon.gap_expert(aggressive=True),
            emergency_planner=platoon.emergency_planner(),
            monitor=RuntimeMonitor(platoon.safety_model()),
            limits=platoon.ego_limits,
        )
        results = BatchRunner(engine, EstimatorKind.FILTERED).run_batch(
            planner, 20, seed=23
        )
        assert all(r.outcome is not Outcome.COLLISION for r in results)
