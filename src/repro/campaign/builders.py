"""Registries turning manifest specs into live simulation objects.

Each builder maps a small JSON object — ``{"kind": ..., **params}`` —
to the corresponding library object.  The registries cover everything a
certification campaign needs (the paper's scenarios, the composable
channel fault algebra, seeded fault plans, the shielded compound
planner) while staying strictly declarative: a manifest can never name
arbitrary code, only registered kinds, so loading an untrusted manifest
builds nothing beyond these factories.

Parameter validation is delegated to the target constructors (they
already check probabilities, signs and units); a wrong or missing
parameter surfaces as :class:`~repro.errors.CampaignError` naming the
offending spec.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.disturbance import DisturbanceModel, no_disturbance
from repro.comm.faults import (
    Duplication,
    FaultModel,
    FixedDelay,
    GaussianJitter,
    GilbertElliottLoss,
    IndependentLoss,
    NoFault,
    UniformJitter,
    compose,
)
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.errors import CampaignError, ReproError
from repro.faults.plan import (
    FaultPlan,
    PlannerFault,
    PlannerFaultKind,
    SensorFault,
    SensorFaultKind,
    StepWindow,
)
from repro.faults.planner_wrapper import FaultyPlanner
from repro.planners.base import Planner
from repro.planners.constant import (
    ConstantPlanner,
    FullBrakePlanner,
    FullThrottlePlanner,
)
from repro.scenarios.base import Scenario
from repro.scenarios.car_following import CarFollowingScenario
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import ChunkResult
from repro.sim.runner import BatchRunner, EstimatorKind

__all__ = [
    "build_scenario",
    "build_comm",
    "build_config",
    "build_planner",
    "build_workload",
    "workload_executor",
]

_SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "left_turn": LeftTurnScenario,
    "car_following": CarFollowingScenario,
}

_FAULT_STAGES: Dict[str, Callable[..., FaultModel]] = {
    "no_fault": NoFault,
    "independent_loss": IndependentLoss,
    "gilbert_elliott_loss": GilbertElliottLoss,
    "fixed_delay": FixedDelay,
    "uniform_jitter": UniformJitter,
    "gaussian_jitter": GaussianJitter,
    "duplication": Duplication,
}


def _kind_of(spec: dict, what: str, registry: Dict[str, Callable]) -> str:
    if not isinstance(spec, dict):
        raise CampaignError(
            f"{what} spec must be a JSON object, got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    if kind not in registry:
        raise CampaignError(
            f"unknown {what} kind {kind!r}; expected one of "
            f"{sorted(registry)}"
        )
    return kind


def _construct(factory: Callable, spec: dict, what: str):
    params = {key: value for key, value in spec.items() if key != "kind"}
    try:
        return factory(**params)
    except TypeError as exc:
        raise CampaignError(f"bad parameters for {what} spec {spec}: {exc}") from exc
    except ReproError as exc:
        raise CampaignError(f"invalid {what} spec {spec}: {exc}") from exc


def build_scenario(spec: dict) -> Scenario:
    """Build a scenario from ``{"kind": "left_turn" | "car_following"}``."""
    kind = _kind_of(spec, "scenario", _SCENARIOS)
    return _construct(_SCENARIOS[kind], spec, "scenario")


def _build_fault_model(stages: List[dict]) -> FaultModel:
    built = []
    for stage in stages:
        kind = _kind_of(stage, "channel fault", _FAULT_STAGES)
        built.append(_construct(_FAULT_STAGES[kind], stage, "channel fault"))
    if not built:
        return NoFault()
    if len(built) == 1:
        return built[0]
    return compose(*built)


def build_comm(spec: dict) -> CommSetup:
    """Build a :class:`CommSetup` from a manifest ``comm`` spec.

    Recognised fields: ``dt_m``/``dt_s`` [s] (default 0.1),
    ``sensor_noise`` (uniform half-width on all three channels, default
    0 = noiseless), ``disturbance`` (``{"delay": s, "drop_probability":
    p}`` preset) and ``faults`` (ordered stage list composed left to
    right; replaces the preset on every channel when present).
    """
    if not isinstance(spec, dict):
        raise CampaignError(
            f"comm spec must be a JSON object, got {type(spec).__name__}"
        )
    dt_m = float(spec.get("dt_m", 0.1))
    dt_s = float(spec.get("dt_s", dt_m))
    noise = float(spec.get("sensor_noise", 0.0))
    bounds = (
        NoiseBounds.uniform_all(noise) if noise > 0.0 else NoiseBounds.noiseless()
    )
    disturbance_spec = spec.get("disturbance")
    if disturbance_spec is None:
        disturbance = no_disturbance()
    else:
        try:
            disturbance = DisturbanceModel(
                delay=float(disturbance_spec.get("delay", 0.0)),
                drop_probability=float(
                    disturbance_spec.get("drop_probability", 0.0)
                ),
            )
        except ReproError as exc:
            raise CampaignError(
                f"invalid disturbance spec {disturbance_spec}: {exc}"
            ) from exc
    faults_spec = spec.get("faults")
    faults = None
    if faults_spec is not None:
        if not isinstance(faults_spec, list):
            raise CampaignError(
                "comm faults must be a list of stage specs, got "
                f"{type(faults_spec).__name__}"
            )
        faults = _build_fault_model(faults_spec)
    try:
        return CommSetup(
            dt_m=dt_m,
            dt_s=dt_s,
            disturbance=disturbance,
            sensor_bounds=bounds,
            faults=faults,
        )
    except ReproError as exc:
        raise CampaignError(f"invalid comm spec {spec}: {exc}") from exc


def _build_step_window(raw, what: str) -> StepWindow:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, int) for v in raw)
    ):
        raise CampaignError(
            f"{what} window must be a [start, stop] integer pair, got {raw!r}"
        )
    return StepWindow(raw[0], raw[1])


def _build_fault_plan(spec: dict) -> FaultPlan:
    sensor = []
    for fault in spec.get("sensor_faults", []):
        try:
            kind = SensorFaultKind(fault.get("kind", ""))
        except ValueError as exc:
            raise CampaignError(
                f"unknown sensor fault kind {fault.get('kind')!r}"
            ) from exc
        sensor.append(
            SensorFault(
                window=_build_step_window(fault.get("window"), "sensor fault"),
                kind=kind,
                target=fault.get("target"),
                probability=float(fault.get("probability", 1.0)),
                stuck_position=float(fault.get("stuck_position", 0.0)),
                stuck_velocity=float(fault.get("stuck_velocity", 0.0)),
                stuck_acceleration=float(fault.get("stuck_acceleration", 0.0)),
            )
        )
    planner = []
    for fault in spec.get("planner_faults", []):
        try:
            kind = PlannerFaultKind(fault.get("kind", ""))
        except ValueError as exc:
            raise CampaignError(
                f"unknown planner fault kind {fault.get('kind')!r}"
            ) from exc
        planner.append(
            PlannerFault(
                window=_build_step_window(fault.get("window"), "planner fault"),
                kind=kind,
                probability=float(fault.get("probability", 1.0)),
            )
        )
    return FaultPlan(sensor_faults=tuple(sensor), planner_faults=tuple(planner))


def build_config(spec: dict) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from a manifest ``config`` spec.

    Recognised fields: ``max_time`` [s] (default 30), ``strict_safety``
    (default false) and ``fault_plan`` (sensor/planner fault schedules).
    Trajectory recording is always off — campaign chunks persist result
    records, not trajectories.
    """
    if not isinstance(spec, dict):
        raise CampaignError(
            f"config spec must be a JSON object, got {type(spec).__name__}"
        )
    fault_plan = None
    if spec.get("fault_plan") is not None:
        fault_plan = _build_fault_plan(spec["fault_plan"])
    try:
        return SimulationConfig(
            max_time=float(spec.get("max_time", 30.0)),
            strict_safety=bool(spec.get("strict_safety", False)),
            record_trajectories=False,
            fault_plan=fault_plan,
        )
    except ReproError as exc:
        raise CampaignError(f"invalid config spec {spec}: {exc}") from exc


def _wrap_planner_faults(planner: Planner, spec: dict) -> Planner:
    faults_spec = spec.get("faults")
    if not faults_spec:
        return planner
    faults = []
    for fault in faults_spec:
        try:
            kind = PlannerFaultKind(fault.get("kind", ""))
        except ValueError as exc:
            raise CampaignError(
                f"unknown planner fault kind {fault.get('kind')!r}"
            ) from exc
        faults.append(
            PlannerFault(
                window=_build_step_window(fault.get("window"), "planner fault"),
                kind=kind,
            )
        )
    return FaultyPlanner(planner, faults)


def build_planner(spec: dict, scenario: Scenario) -> Planner:
    """Build a planner from a manifest ``planner`` spec.

    Kinds: ``constant`` (``acceleration`` [m/s^2]), ``full_brake``,
    ``full_throttle``, and ``compound`` — the paper's shielded planner
    wrapping an ``embedded`` spec with the scenario's emergency planner
    and runtime monitor.  Any spec may carry ``faults``: a list of
    ``{"window": [a, b], "kind": "exception" | "nan" | "latency"}``
    windows wrapped via :class:`~repro.faults.planner_wrapper.FaultyPlanner`
    (deterministic, so parallel chunks stay bit-identical).
    """
    registry = {
        "constant": None,
        "full_brake": None,
        "full_throttle": None,
        "compound": None,
    }
    kind = _kind_of(spec, "planner", registry)
    ego_limits = scenario.vehicle_limits(0)
    if kind == "constant":
        if "acceleration" not in spec:
            raise CampaignError(
                "constant planner spec requires an 'acceleration' field"
            )
        planner: Planner = ConstantPlanner(float(spec["acceleration"]))
    elif kind == "full_brake":
        planner = FullBrakePlanner(ego_limits)
    elif kind == "full_throttle":
        planner = FullThrottlePlanner(ego_limits)
    else:  # compound
        embedded_spec = spec.get("embedded")
        if embedded_spec is None:
            raise CampaignError(
                "compound planner spec requires an 'embedded' planner spec"
            )
        if embedded_spec.get("kind") == "compound":
            raise CampaignError("compound planners cannot nest")
        embedded = build_planner(embedded_spec, scenario)
        try:
            planner = CompoundPlanner(
                nn_planner=embedded,
                emergency_planner=scenario.emergency_planner(),
                monitor=RuntimeMonitor(scenario.safety_model()),
                limits=ego_limits,
            )
        except ReproError as exc:
            raise CampaignError(f"invalid compound spec {spec}: {exc}") from exc
        return _wrap_planner_faults(planner, spec)
    return _wrap_planner_faults(planner, spec)


def build_workload(
    manifest,
) -> Tuple[Scenario, CommSetup, SimulationConfig, Planner, EstimatorKind]:
    """Instantiate everything a manifest's chunks execute against."""
    scenario = build_scenario(manifest.scenario)
    comm = build_comm(manifest.comm)
    config = build_config(manifest.config)
    planner = build_planner(manifest.planner, scenario)
    kind = (
        EstimatorKind.FILTERED
        if manifest.estimator == "filtered"
        else EstimatorKind.RAW
    )
    return scenario, comm, config, planner, kind


def workload_executor(
    manifest,
    n_workers: int = 1,
    max_retries: int = 2,
    timeout_per_sim: Optional[float] = None,
    observer=None,
) -> Callable[..., ChunkResult]:
    """The chunk executor of a manifest's workload, built on first use.

    Returns ``execute(indices, n_sims, seed, progress=None)``: the first
    call builds the workload (:func:`build_workload`) behind a
    :class:`~repro.sim.runner.BatchRunner`, and every call runs
    :meth:`~repro.sim.runner.BatchRunner.run_indices_detailed`.  The
    campaign runner and the shard worker both execute chunks through it.

    Units: timeout_per_sim [s]
    """
    built: List[Tuple[BatchRunner, Planner]] = []

    def execute(
        indices: Sequence[int],
        n_sims: int,
        seed: int,
        progress: Optional[Callable[[int], None]] = None,
    ) -> ChunkResult:
        if not built:
            scenario, comm, config, planner, kind = build_workload(manifest)
            runner = BatchRunner(
                SimulationEngine(scenario, comm, config),
                kind,
                n_workers=n_workers,
                max_retries=max_retries,
                timeout_per_sim=timeout_per_sim,
                observer=observer,
            )
            built.append((runner, planner))
        runner, planner = built[0]
        return runner.run_indices_detailed(
            planner, indices, n_sims, seed, progress=progress
        )

    return execute
