"""The safety guarantee across sampled scenario geometries.

The monitor/emergency construction must not be tuned to the paper's
specific numbers (area at [5, 15], ego from -30, 6 m/s² brakes).  These
property tests sample whole scenario configurations — geometry, limits,
initial conditions — and assert the compound planner with a worst-case
embedded planner stays safe on each.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.faults import messages_delayed
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.dynamics.vehicle import VehicleLimits
from repro.planners.constant import FullThrottlePlanner
from repro.scenarios.left_turn.geometry import LeftTurnGeometry
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.utils.rng import RngStream


@st.composite
def scenario_configs(draw):
    """Sample a coherent left-turn scenario configuration."""
    p_front = draw(st.floats(2.0, 12.0))
    area_length = draw(st.floats(4.0, 15.0))
    p_back = p_front + area_length
    geometry = LeftTurnGeometry(
        p_front=p_front,
        p_back=p_back,
        oncoming_front=p_back,
        oncoming_back=p_front,
        p_target=p_back + draw(st.floats(2.0, 10.0)),
    )
    ego_limits = VehicleLimits(
        v_min=0.0,
        v_max=draw(st.floats(12.0, 25.0)),
        a_min=-draw(st.floats(4.0, 8.0)),
        a_max=draw(st.floats(2.0, 5.0)),
    )
    max_speed = draw(st.floats(15.0, 22.0))
    oncoming_limits = VehicleLimits(
        v_min=-max_speed,
        v_max=-2.0,
        a_min=-3.0,
        a_max=3.0,
    )
    ego_start = (
        -draw(st.floats(15.0, 40.0)),
        draw(st.floats(4.0, 12.0)),
    )
    return LeftTurnScenario(
        geometry=geometry,
        ego_limits=ego_limits,
        oncoming_limits=oncoming_limits,
        ego_start=ego_start,
        oncoming_start_positions=tuple(
            p_back + 30.0 + 2.0 * j for j in range(8)
        ),
        oncoming_start_speed_range=(6.0, 13.0),
    )


class TestGeometryRobustness:
    @given(scenario=scenario_configs(), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_compound_safe_on_sampled_scenarios(self, scenario, seed):
        engine = SimulationEngine(
            scenario,
            CommSetup(
                0.1,
                0.1,
                messages_delayed(0.25, 0.4),
                NoiseBounds.uniform_all(1.5),
            ),
            SimulationConfig(max_time=25.0, record_trajectories=False),
        )
        planner = CompoundPlanner(
            nn_planner=FullThrottlePlanner(scenario.ego_limits),
            emergency_planner=scenario.emergency_planner(),
            monitor=RuntimeMonitor(scenario.safety_model()),
            limits=scenario.ego_limits,
        )
        factory = make_estimator_factory(EstimatorKind.FILTERED, engine)
        result = engine.run(planner, factory, RngStream(seed))
        assert result.outcome is not Outcome.COLLISION
