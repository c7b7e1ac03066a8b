"""Property tests of whole-episode engine invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.faults import messages_delayed
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleModel
from repro.dynamics.profiles import RandomSequenceProfile
from repro.filtering.fusion import FusedEstimate
from repro.planners.constant import ConstantPlanner
from repro.scenarios.left_turn.passing_time import conservative_bounds, speed_limits
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.utils.rng import RngStream

SCENARIO = LeftTurnScenario()
ENGINE = SimulationEngine(
    SCENARIO,
    CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        faults=messages_delayed(0.25, 0.3),
        sensor_bounds=NoiseBounds.uniform_all(1.0),
    ),
    SimulationConfig(max_time=12.0),
)
FACTORY = make_estimator_factory(EstimatorKind.RAW, ENGINE)


class TestEpisodeInvariants:
    @given(seed=st.integers(0, 500), accel=st.floats(-6.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_trajectories_respect_physics(self, seed, accel):
        result = ENGINE.run(ConstantPlanner(accel), FACTORY, RngStream(seed))
        ego, oncoming = result.trajectories

        # Time strictly increasing with the control step.
        times = ego.times()
        assert all(b > a for a, b in zip(times, times[1:]))

        # Velocities inside the physical limits at every sample.
        ego_limits = SCENARIO.ego_limits
        for point in ego:
            assert (
                ego_limits.v_min - 1e-9
                <= point.velocity
                <= ego_limits.v_max + 1e-9
            )
        onc_limits = SCENARIO.oncoming_limits
        for point in oncoming:
            assert (
                onc_limits.v_min - 1e-9
                <= point.velocity
                <= onc_limits.v_max + 1e-9
            )

        # The oncoming vehicle only ever moves toward decreasing
        # coordinates (its velocity cap is negative).
        positions = oncoming.positions()
        assert all(b <= a + 1e-9 for a, b in zip(positions, positions[1:]))

        # The recorded ego command equals the (clipped) constant input.
        expected = ego_limits.clip_acceleration(accel)
        commands = ego.accelerations()
        # All but the terminal sample carry the planner's command.
        assert all(c == pytest.approx(expected) for c in commands[:-1])

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_eta_consistent_with_outcome(self, seed):
        result = ENGINE.run(ConstantPlanner(2.0), FACTORY, RngStream(seed))
        from repro.sim.evaluation import eta_from_events

        assert result.eta == eta_from_events(
            result.collision_time, result.reaching_time
        )


class TestWindowMonotonicity:
    """The conservative window shrinks (never extends) as time advances.

    This is the temporal-soundness property the commit invariant relies
    on: once the monitor has certified "pass after cw.hi" or "pass
    before cw.lo", later windows — computed from better information —
    must stay inside the earlier ones, so the certification cannot be
    invalidated.
    """

    @given(
        seed=st.integers(0, 300),
        start=st.floats(40.0, 60.0),
        speed=st.floats(9.0, 14.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_information_windows_nested_over_time(
        self, seed, start, speed
    ):
        model = VehicleModel(SCENARIO.oncoming_limits)
        profile = RandomSequenceProfile(RngStream(seed), -2.0, 2.0)
        state = VehicleState(position=start, velocity=-speed)
        dt = 0.05
        prev_lo = float("-inf")
        prev_hi = float("inf")
        for step in range(120):
            t = step * dt
            p, v = state.position, state.velocity
            estimate = FusedEstimate(t, p, p, v, v, p, v, state.acceleration)
            lo, hi = conservative_bounds(
                estimate, SCENARIO.geometry, speed_limits(SCENARIO.oncoming_limits)
            )
            if lo > hi:
                break  # cleared for good; stays empty afterwards
            assert lo >= prev_lo - 1e-9
            assert hi <= prev_hi + 1e-9
            prev_lo, prev_hi = lo, hi
            accel = profile(
                step, t, state.position, state.velocity, state.acceleration
            )
            state = model.step(state, accel, dt)
