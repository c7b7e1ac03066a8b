"""Safety-guaranteed framework for NN-based planners in connected vehicles.

A faithful Python reproduction of *"A Safety-Guaranteed Framework for
Neural-Network-Based Planners in Connected Vehicles under Communication
Disturbance"* (DATE 2023): given any NN-based planner, build a *compound
planner* — runtime monitor + emergency planner — that guarantees safety
under message delays/drops and sensor noise, with an information filter
and aggressive unsafe-set estimation recovering (and usually improving)
the embedded planner's efficiency.

Quickstart::

    from repro import (
        LeftTurnScenario, CommSetup, SimulationEngine, BatchRunner,
        CompoundPlanner, RuntimeMonitor, EstimatorKind,
        train_left_turn_planner,
    )

    scenario = LeftTurnScenario()
    spec = train_left_turn_planner(
        "aggressive", scenario.geometry, scenario.ego_limits,
        scenario.oncoming_limits, seed=7,
    )
    planner = CompoundPlanner(
        nn_planner=spec.build_planner(
            spec.expert.window_estimator, scenario.ego_limits
        ),
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
    )
    engine = SimulationEngine(scenario, CommSetup.perfect())
    result = BatchRunner(engine, EstimatorKind.FILTERED).run_one(planner, seed=1)
    print(result.outcome, result.eta)

See DESIGN.md for the module map and EXPERIMENTS.md for the paper
reproduction results.
"""

from repro.comm import (
    Channel,
    ComposedFaults,
    DisturbanceModel,
    Duplication,
    FaultModel,
    FixedDelay,
    GaussianJitter,
    GilbertElliottLoss,
    IndependentLoss,
    Message,
    NoFault,
    UniformJitter,
    compose,
    messages_delayed,
    messages_lost,
    no_disturbance,
)
from repro.core import (
    AggressiveConfig,
    CertificationReport,
    CompoundPlanner,
    MonitorDecision,
    RuntimeMonitor,
    SafetyModel,
    certify,
)
from repro.dynamics import (
    SystemState,
    Trajectory,
    VehicleLimits,
    VehicleModel,
    VehicleState,
)
from repro.filtering import (
    FusedEstimate,
    InformationFilter,
    KalmanFilter,
    RawEstimator,
    ReachabilityAnalyzer,
    ReplayKalmanFilter,
)
from repro.planners import (
    ExpertConfig,
    LeftTurnExpertPlanner,
    NNPlanner,
    Planner,
    PlanningContext,
    train_left_turn_planner,
)
from repro.scenarios import LeftTurnScenario, Scenario
from repro.sensing import NoiseBounds, Sensor

# After planners/scenarios: repro.faults reaches back into repro.planners.
from repro.faults import (
    FaultPlan,
    FaultyPlanner,
    PlannerFault,
    PlannerFaultKind,
    SensorFault,
    SensorFaultKind,
    StepWindow,
    WorkerChaosOnce,
)
from repro.sim import (
    AggregateStats,
    BatchResult,
    BatchRunner,
    CommSetup,
    EstimatorKind,
    FailureRecord,
    Outcome,
    SimulationConfig,
    SimulationEngine,
    SimulationResult,
    winning_percentage,
)
from repro.utils import Interval, RngStream

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # comm
    "Message",
    "Channel",
    "DisturbanceModel",
    "no_disturbance",
    "messages_delayed",
    "messages_lost",
    "FaultModel",
    "NoFault",
    "IndependentLoss",
    "GilbertElliottLoss",
    "FixedDelay",
    "UniformJitter",
    "GaussianJitter",
    "Duplication",
    "ComposedFaults",
    "compose",
    # faults
    "StepWindow",
    "SensorFaultKind",
    "SensorFault",
    "PlannerFaultKind",
    "PlannerFault",
    "FaultPlan",
    "FaultyPlanner",
    "WorkerChaosOnce",
    # core
    "SafetyModel",
    "RuntimeMonitor",
    "MonitorDecision",
    "AggressiveConfig",
    "CompoundPlanner",
    "certify",
    "CertificationReport",
    # dynamics
    "VehicleState",
    "SystemState",
    "VehicleLimits",
    "VehicleModel",
    "Trajectory",
    # filtering
    "KalmanFilter",
    "ReplayKalmanFilter",
    "ReachabilityAnalyzer",
    "InformationFilter",
    "RawEstimator",
    "FusedEstimate",
    # planners
    "Planner",
    "PlanningContext",
    "ExpertConfig",
    "LeftTurnExpertPlanner",
    "NNPlanner",
    "train_left_turn_planner",
    # scenarios
    "Scenario",
    "LeftTurnScenario",
    # sensing
    "NoiseBounds",
    "Sensor",
    # sim
    "CommSetup",
    "SimulationConfig",
    "SimulationEngine",
    "BatchRunner",
    "BatchResult",
    "FailureRecord",
    "EstimatorKind",
    "Outcome",
    "SimulationResult",
    "AggregateStats",
    "winning_percentage",
    # utils
    "Interval",
    "RngStream",
]
