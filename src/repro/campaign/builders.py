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
parameter, a value of the wrong type and an unknown key all surface as
:class:`~repro.errors.CampaignError` naming the offending spec (and,
for an unknown key, the keys it takes).
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.utils.validation import check_positive

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


def _check_keys(spec: dict, keys: Sequence[str], what: str) -> None:
    """Refuse a key of ``spec`` outside ``keys``, naming ``keys``."""
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise CampaignError(
            f"unknown {what} spec keys {unknown}; expected some of "
            f"{list(keys)}"
        )


def _finite(spec: dict, key: str, what: str, default: float = 0.0) -> float:
    """``spec[key]`` (``default`` when absent) as a finite float."""
    value = spec.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise CampaignError(
            f"{what} {key} must be a finite number, got {value!r}"
        )
    return number


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


#: The keys a manifest ``comm`` spec may carry.
_COMM_KEYS = ("dt_m", "dt_s", "sensor_noise", "faults")


def _retired_disturbance(spec) -> CampaignError:
    """The error naming the ``faults`` stages a ``disturbance`` spec meant."""
    values = spec if isinstance(spec, dict) else {}
    stages = []
    if values.get("drop_probability"):
        stages.append(
            {"kind": "independent_loss", "probability": values["drop_probability"]}
        )
    if values.get("delay"):
        stages.append({"kind": "fixed_delay", "delay": values["delay"]})
    return CampaignError(
        "comm 'disturbance' is not a manifest key; write the same channel "
        f"as \"faults\": {json.dumps(stages)}"
    )


def build_comm(spec: dict) -> CommSetup:
    """Build a :class:`CommSetup` from a manifest ``comm`` spec.

    Recognised fields: ``dt_m``/``dt_s`` [s] (default 0.1; ``dt_s``
    defaults to ``dt_m``), ``sensor_noise`` (uniform half-width on all
    three channels, default 0 = noiseless) and ``faults`` (ordered stage
    list composed left to right, default ``[]`` = no fault).  Any other
    key, or a value of the wrong type or range, is a
    :class:`~repro.errors.CampaignError`.
    """
    if not isinstance(spec, dict):
        raise CampaignError(
            f"comm spec must be a JSON object, got {type(spec).__name__}"
        )
    if "disturbance" in spec:
        raise _retired_disturbance(spec["disturbance"])
    _check_keys(spec, _COMM_KEYS, "comm")
    faults_spec = spec.get("faults", [])
    if not isinstance(faults_spec, list):
        raise CampaignError(
            "comm faults must be a list of stage specs, got "
            f"{type(faults_spec).__name__}"
        )
    faults = _build_fault_model(faults_spec)
    try:
        dt_m = check_positive(spec.get("dt_m", 0.1), "dt_m")
        return CommSetup(
            dt_m=dt_m,
            dt_s=check_positive(spec.get("dt_s", dt_m), "dt_s"),
            faults=faults,
            sensor_bounds=NoiseBounds.uniform_all(spec.get("sensor_noise", 0.0)),
        )
    except (TypeError, ValueError, ReproError) as exc:
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
    try:
        return StepWindow(raw[0], raw[1])
    except ReproError as exc:
        raise CampaignError(f"invalid {what} window {raw!r}: {exc}") from exc


#: Per fault list of a ``fault_plan`` spec: what a fault is called, its
#: type, its kind enum, and the keys it may carry besides ``window`` and
#: ``kind`` (finite numbers, except a sensor fault's vehicle ``target``).
_FAULT_LISTS = {
    "sensor_faults": (
        "sensor fault",
        SensorFault,
        SensorFaultKind,
        ("target", "probability", "stuck_position", "stuck_velocity",
         "stuck_acceleration"),
    ),
    "planner_faults": (
        "planner fault", PlannerFault, PlannerFaultKind, ("probability",)
    ),
}


def _build_faults(
    faults, what: str, factory, enum, keys: Sequence[str]
) -> list:
    """Build each ``{"window": [a, b], "kind": ..., **keys}`` fault."""
    if not isinstance(faults, list) or not all(
        isinstance(fault, dict) for fault in faults
    ):
        raise CampaignError(
            f"{what}s must be a list of objects, got {faults!r}"
        )
    built = []
    for fault in faults:
        _check_keys(fault, ("window", "kind", *keys), what)
        params = {
            key: fault[key] if key == "target" else _finite(fault, key, what)
            for key in keys
            if key in fault
        }
        window = _build_step_window(fault.get("window"), what)
        try:
            kind = enum(fault.get("kind", ""))
        except ValueError as exc:
            raise CampaignError(
                f"unknown {what} kind {fault.get('kind')!r}; expected one of "
                f"{[member.value for member in enum]}"
            ) from exc
        try:
            built.append(factory(window=window, kind=kind, **params))
        except ReproError as exc:
            raise CampaignError(f"invalid {what} {fault}: {exc}") from exc
    return built


def _build_fault_plan(spec: dict) -> FaultPlan:
    if not isinstance(spec, dict):
        raise CampaignError(
            f"fault_plan spec must be a JSON object, got {type(spec).__name__}"
        )
    _check_keys(spec, tuple(_FAULT_LISTS), "fault_plan")
    return FaultPlan(
        **{
            key: _build_faults(spec.get(key, []), *entry)
            for key, entry in _FAULT_LISTS.items()
        }
    )


#: The keys a manifest ``config`` spec may carry.
_CONFIG_KEYS = ("max_time", "strict_safety", "fault_plan")


def build_config(spec: dict) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from a manifest ``config`` spec.

    Recognised fields: ``max_time`` [s] (default 30), ``strict_safety``
    (default false) and ``fault_plan`` (sensor/planner fault schedules).
    Trajectory recording is always off — campaign chunks persist result
    records, not trajectories.  Any other key, or a value of the wrong
    type or range, is a :class:`~repro.errors.CampaignError`.
    """
    if not isinstance(spec, dict):
        raise CampaignError(
            f"config spec must be a JSON object, got {type(spec).__name__}"
        )
    _check_keys(spec, _CONFIG_KEYS, "config")
    strict_safety = spec.get("strict_safety", False)
    if not isinstance(strict_safety, bool):
        raise CampaignError(
            "config strict_safety must be true or false, got "
            f"{strict_safety!r}"
        )
    max_time = _finite(spec, "max_time", "config", 30.0)
    fault_plan = None
    if spec.get("fault_plan") is not None:
        fault_plan = _build_fault_plan(spec["fault_plan"])
    try:
        return SimulationConfig(
            max_time=max_time,
            strict_safety=strict_safety,
            record_trajectories=False,
            fault_plan=fault_plan,
        )
    except ReproError as exc:
        raise CampaignError(f"invalid config spec {spec}: {exc}") from exc


def _wrap_planner_faults(planner: Planner, spec: dict) -> Planner:
    if not spec.get("faults"):
        return planner
    faults = _build_faults(
        spec["faults"], "planner fault", PlannerFault, PlannerFaultKind, ()
    )
    return FaultyPlanner(planner, faults)


#: The keys each planner kind's spec may carry.
_PLANNER_KEYS: Dict[str, Tuple[str, ...]] = {
    "constant": ("kind", "acceleration", "faults"),
    "full_brake": ("kind", "faults"),
    "full_throttle": ("kind", "faults"),
    "compound": ("kind", "embedded", "faults"),
}


def build_planner(spec: dict, scenario: Scenario) -> Planner:
    """Build a planner from a manifest ``planner`` spec.

    Kinds: ``constant`` (``acceleration`` [m/s^2]), ``full_brake``,
    ``full_throttle``, and ``compound`` — the paper's shielded planner
    wrapping an ``embedded`` spec with the scenario's emergency planner
    and runtime monitor.  Any spec may carry ``faults``: a list of
    ``{"window": [a, b], "kind": "exception" | "nan" | "latency"}``
    windows wrapped via :class:`~repro.faults.planner_wrapper.FaultyPlanner`
    (deterministic, so parallel chunks stay bit-identical).  Any other
    key, or a value of the wrong type, is a
    :class:`~repro.errors.CampaignError`.
    """
    kind = _kind_of(spec, "planner", _PLANNER_KEYS)
    _check_keys(spec, _PLANNER_KEYS[kind], f"{kind} planner")
    ego_limits = scenario.vehicle_limits(0)
    if kind == "constant":
        if "acceleration" not in spec:
            raise CampaignError(
                "constant planner spec requires an 'acceleration' field"
            )
        planner: Planner = ConstantPlanner(
            _finite(spec, "acceleration", "constant planner")
        )
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
        if (
            isinstance(embedded_spec, dict)
            and embedded_spec.get("kind") == "compound"
        ):
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
) -> Tuple[SimulationEngine, Planner, EstimatorKind]:
    """Instantiate everything a manifest's chunks execute against.

    Any part that cannot be built raises
    :class:`~repro.errors.CampaignError`, the engine's own checks (the
    periods must be multiples of the scenario's control period)
    included.
    """
    scenario = build_scenario(manifest.scenario)
    comm = build_comm(manifest.comm)
    config = build_config(manifest.config)
    planner = build_planner(manifest.planner, scenario)
    try:
        engine = SimulationEngine(scenario, comm, config)
    except ReproError as exc:
        raise CampaignError(f"invalid comm spec {manifest.comm}: {exc}") from exc
    kind = (
        EstimatorKind.FILTERED
        if manifest.estimator == "filtered"
        else EstimatorKind.RAW
    )
    return engine, planner, kind


def workload_executor(
    manifest,
    timeout_per_sim: Optional[float] = None,
    observer=None,
) -> Callable[[List[int]], ChunkResult]:
    """The chunk executor of a manifest's workload, built on first use.

    Returns ``execute(indices)``, which runs those indices of the
    manifest's batch (its ``n_sims`` and ``seed``): the first call
    builds the workload (:func:`build_workload`) behind a
    :class:`~repro.sim.runner.BatchRunner`, and every call runs
    :meth:`~repro.sim.runner.BatchRunner.run_indices_detailed`:
    in-process, or under ``timeout_per_sim`` in a watchdog worker
    process, each index once.  The campaign runner's in-process
    transport and the shard worker both hand it to
    :func:`~repro.campaign.runner.run_chunk_attempts`; campaign
    parallelism is the shard fleet.

    Units: timeout_per_sim [s]
    """
    built: List[Tuple[BatchRunner, Planner]] = []

    def execute(indices: Sequence[int]) -> ChunkResult:
        if not built:
            engine, planner, kind = build_workload(manifest)
            runner = BatchRunner(
                engine,
                kind,
                timeout_per_sim=timeout_per_sim,
                observer=observer,
            )
            built.append((runner, planner))
        runner, planner = built[0]
        return runner.run_indices_detailed(
            planner, indices, manifest.n_sims, manifest.seed
        )

    return execute
