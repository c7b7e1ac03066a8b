"""The closed-loop simulation engine.

One engine instance binds a scenario to a communication setup; each
:meth:`SimulationEngine.run` executes a full episode with fresh channels,
sensors, estimators and behaviour profiles drawn from the run's seed
stream, so batches are embarrassingly parallel over seeds.

Per control step the engine follows the system model of Section II-A:

1. every non-ego vehicle picks its acceleration for the coming step
   (its profile), which also stamps the message/sensor content ``a_i(t)``;
2. on the sensing schedule, each sensor takes a noisy reading that goes
   straight to that vehicle's estimator (sensing is delay-free);
3. on the transmission schedule, each vehicle broadcasts its exact state
   into its channel (which may drop or delay it);
4. any messages whose delivery time has arrived reach the estimator;
5. terminal conditions (ground-truth collision, target reached, horizon)
   are checked on the *true* joint state;
6. the ego planner is invoked on its own state plus the fused estimates;
7. all vehicles step their saturating double-integrator dynamics.

Collision detection samples the true state once per control step; at the
paper's parameters (``dt_c = 0.05 s``, speeds <= 20 m/s, a 10 m unsafe
area) a vehicle moves at most 1 m per step, so overlap cannot be stepped
over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.comm.channel import Channel
from repro.comm.disturbance import DisturbanceModel, no_disturbance
from repro.comm.faults import FaultModel
from repro.dynamics.state import SystemState, VehicleState
from repro.dynamics.trajectory import Trajectory
from repro.dynamics.vehicle import VehicleModel
from repro.errors import SafetyViolationError, SimulationError
from repro.faults.plan import FaultInjector, FaultPlan
from repro.filtering.info_filter import EstimateProvider
from repro.obs.observer import resolve_observer
from repro.planners.base import Planner, PlanningContext, clipped
from repro.scenarios.base import Scenario
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import Sensor
from repro.sim.clock import MultiRateClock
from repro.sim.results import Outcome, SimulationResult
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = [
    "CommSetup",
    "SimulationConfig",
    "SimulationEngine",
    "run_episode",
]

#: Builds a fresh estimator for one observed vehicle at the start of a run.
EstimatorFactory = Callable[[int], EstimateProvider]


@dataclass(frozen=True)
class CommSetup:
    """Communication and sensing parameters of one experiment setting.

    Attributes
    ----------
    dt_m, dt_s:
        Transmission and sensing periods (multiples of the control
        period; the paper sets ``dt_m = dt_s``).
    disturbance:
        The channel's drop/delay model (the paper's presets).
    sensor_bounds:
        Uniform noise bounds of the onboard sensor.
    faults:
        Optional composable channel fault model
        (:mod:`repro.comm.faults`); when set it *replaces* the
        ``disturbance`` preset on every channel (burst loss, jitter,
        duplication, and compositions thereof).

    Units: dt_m [s], dt_s [s]
    """

    dt_m: float
    dt_s: float
    disturbance: DisturbanceModel
    sensor_bounds: NoiseBounds
    faults: Optional[FaultModel] = None

    @classmethod
    def perfect(cls, dt_m: float = 0.1) -> "CommSetup":
        """Lossless, immediate messages and noiseless sensing."""
        return cls(
            dt_m=dt_m,
            dt_s=dt_m,
            disturbance=no_disturbance(),
            sensor_bounds=NoiseBounds.noiseless(),
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Engine-level knobs.

    Attributes
    ----------
    max_time:
        Horizon; a run that neither collides nor reaches by then scores
        ``eta = 0``.
    strict_safety:
        Raise :class:`~repro.errors.SafetyViolationError` on a collision
        instead of recording it.  Used when simulating compound planners
        whose safety the theorem guarantees — a violation then means a
        bug, not a data point.
    record_trajectories:
        Disable to save memory in very large batches.
    fault_plan:
        Optional engine-level fault schedule (:mod:`repro.faults`);
        ``None`` (the default) injects nothing and leaves runs
        byte-identical to the pre-fault engine.

    Units: max_time [s]
    """

    max_time: float = 30.0
    strict_safety: bool = False
    record_trajectories: bool = True
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        check_positive(self.max_time, "max_time")


class SimulationEngine:
    """Runs closed-loop episodes of a scenario under one comm setup."""

    def __init__(
        self,
        scenario: Scenario,
        comm: CommSetup,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        self._scenario = scenario
        self._comm = comm
        self._config = config if config is not None else SimulationConfig()
        self._clock = MultiRateClock(scenario.dt_c, comm.dt_m, comm.dt_s)
        self._faults: FaultModel = (
            comm.faults
            if comm.faults is not None
            else comm.disturbance.as_fault_model()
        )
        self._models = {
            i: VehicleModel(scenario.vehicle_limits(i))
            for i in range(scenario.n_vehicles)
        }

    @property
    def scenario(self) -> Scenario:
        """The scenario being simulated."""
        return self._scenario

    @property
    def comm(self) -> CommSetup:
        """The communication setup."""
        return self._comm

    @property
    def config(self) -> SimulationConfig:
        """The engine-level configuration."""
        return self._config

    @property
    def clock(self) -> MultiRateClock:
        """The multi-rate schedule."""
        return self._clock

    # ------------------------------------------------------------------
    # One episode
    # ------------------------------------------------------------------
    def run(
        self,
        planner: Planner,
        estimator_factory: EstimatorFactory,
        rng: RngStream,
        observer=None,
    ) -> SimulationResult:
        """Execute one full episode.

        Parameters
        ----------
        planner:
            The ego planner; if it exposes ``reset()`` (the compound
            planner does) it is reset first, and if it exposes
            ``last_decision`` the emergency step counter is derived from
            it.
        estimator_factory:
            Builds one fresh estimator per observed vehicle.
        rng:
            The run's seed stream; all stochastic components draw from
            independent children of it.
        observer:
            Optional :class:`~repro.obs.observer.Observer`; records
            per-step spans and per-stage timing.  Observation is
            write-only — traced runs are bit-identical to untraced ones.

        Effects: mutates-args, draws-rng
        """
        obs = resolve_observer(observer)
        traced = obs.enabled
        scenario = self._scenario
        n = scenario.n_vehicles
        others = range(1, n)

        # Child 4 feeds fault-plan activation; spawning it unconditionally
        # keeps children 0-3 (and so every fault-free run) byte-identical
        # to the pre-fault engine.
        init_rng, profile_rng, channel_rng, sensor_rng, fault_rng = rng.spawn(5)
        profile_streams = profile_rng.spawn(n)
        channel_streams = channel_rng.spawn(n)
        sensor_streams = sensor_rng.spawn(n)

        state = scenario.initial_state(init_rng)
        profiles = {i: scenario.profile_for(i, profile_streams[i]) for i in others}
        channels = {
            i: Channel(
                period=self._comm.dt_m,
                rng=channel_streams[i],
                faults=self._faults,
                observer=obs,
                name=f"veh{i}",
            )
            for i in others
        }
        injector: Optional[FaultInjector] = None
        if self._config.fault_plan is not None and not self._config.fault_plan.is_empty:
            injector = self._config.fault_plan.compile(fault_rng)
        sensors = {
            i: Sensor(
                target=i,
                period=self._comm.dt_s,
                bounds=self._comm.sensor_bounds,
                rng=sensor_streams[i],
            )
            for i in others
        }
        estimators = {i: estimator_factory(i) for i in others}

        if hasattr(planner, "reset"):
            planner.reset()

        trajectories = (
            [Trajectory() for _ in range(n)]
            if self._config.record_trajectories
            else []
        )
        emergency_steps = 0
        planned_steps = 0
        outcome = Outcome.TIMEOUT
        collision_time: Optional[float] = None
        reaching_time: Optional[float] = None

        dt = self._clock.dt_c
        n_steps = int(round(self._config.max_time / dt))

        run_handle = obs.begin("engine.run", n_steps=n_steps) if traced else -1
        step_handle = -1
        for step in range(n_steps + 1):
            t = self._clock.time_of(step)
            if traced:
                step_handle = obs.begin("engine.step", step=step, t=t)

            # 1. Non-ego commands for the coming step stamp the content
            #    of this step's messages and sensor readings.
            stage = obs.begin("engine.profile") if traced else -1
            commands: Dict[int, float] = {}
            stamped: Dict[int, VehicleState] = {}
            for i in others:
                commands[i] = profiles[i](step, t, state.vehicle(i))
                stamped[i] = state.vehicle(i).with_acceleration(commands[i])
            if traced:
                obs.end(stage)

            # 2-4. Sensing, transmission, delivery.  Faulted sensors still
            # draw their noise (the reading is taken, then filtered), so a
            # dropout never shifts the random sequence of later readings.
            if self._clock.is_sensor_step(step):
                stage = obs.begin("engine.sense") if traced else -1
                for i in others:
                    reading = sensors[i].measure(t, stamped[i])
                    if injector is not None:
                        faulted = injector.apply_sensor(step, i, reading)
                        if faulted is None:
                            continue
                        reading = faulted
                    estimators[i].on_sensor_reading(reading)
                if traced:
                    obs.end(stage)
            stage = obs.begin("engine.comm") if traced else -1
            if self._clock.is_message_step(step):
                for i in others:
                    channels[i].send(i, t, stamped[i])
            for i in others:
                for message in channels[i].receive(t):
                    estimators[i].on_message(message, t)
            if traced:
                obs.end(stage)

            # 5. Terminal checks on the true joint state.
            if scenario.is_collision(state):
                collision_time = t
                outcome = Outcome.COLLISION
                self._record(trajectories, t, state.ego, stamped, terminal=True)
                if traced:
                    obs.instant("engine.collision", t=t)
                    obs.end(step_handle)
                if self._config.strict_safety:
                    raise SafetyViolationError(
                        f"planner entered the unsafe set at t={t:.3f}s"
                    )
                break
            if scenario.reached_target(state):
                reaching_time = t
                outcome = Outcome.REACHED
                self._record(trajectories, t, state.ego, stamped, terminal=True)
                if traced:
                    obs.instant("engine.reached", t=t)
                    obs.end(step_handle)
                break
            if step == n_steps:
                self._record(trajectories, t, state.ego, stamped, terminal=True)
                if traced:
                    obs.end(step_handle)
                break

            # 6. Plan.
            stage = obs.begin("engine.estimate") if traced else -1
            estimates = {i: estimators[i].estimate(t) for i in others}
            if traced:
                obs.end(stage)
            stage = obs.begin("engine.plan") if traced else -1
            context = PlanningContext(time=t, ego=state.ego, estimates=estimates)
            if injector is not None:
                ego_command, planner_called = injector.plan(
                    step, planner, context, scenario.vehicle_limits(0)
                )
                # Injected NaN (and any out-of-range fault command) must
                # not corrupt the dynamics: sanitise like the compound
                # planner does.
                ego_command = clipped(ego_command, scenario.vehicle_limits(0))
            else:
                ego_command = planner.plan(context)
                planner_called = True
            if traced:
                obs.end(stage)
            planned_steps += 1
            decision = (
                getattr(planner, "last_decision", None) if planner_called else None
            )
            if decision is not None and decision.use_emergency:
                emergency_steps += 1

            self._record(
                trajectories,
                t,
                state.ego.with_acceleration(ego_command),
                stamped,
                terminal=False,
            )

            # 7. Step the dynamics.
            stage = obs.begin("engine.act") if traced else -1
            new_vehicles = [self._models[0].step(state.ego, ego_command, dt)]
            for i in others:
                new_vehicles.append(
                    self._models[i].step(state.vehicle(i), commands[i], dt)
                )
            state = SystemState(time=t + dt, vehicles=tuple(new_vehicles))
            if traced:
                obs.end(stage)
                obs.end(step_handle)

        if traced:
            obs.end(
                run_handle, outcome=outcome.value, planned_steps=planned_steps
            )
            obs.count("engine.runs")
            obs.count("engine.planned_steps", planned_steps)

        if planned_steps == 0 and outcome is Outcome.TIMEOUT:
            raise SimulationError("simulation ended without planning any step")

        return SimulationResult(
            outcome=outcome,
            reaching_time=reaching_time,
            collision_time=collision_time,
            steps=planned_steps,
            emergency_steps=emergency_steps,
            trajectories=trajectories,
            channel_stats={i: channels[i].stats for i in others},
            sensor_faults_injected=(
                0 if injector is None else injector.sensor_faults_injected
            ),
            planner_faults_injected=(
                0 if injector is None else injector.planner_faults_injected
            ),
        )

    # ------------------------------------------------------------------
    def _record(
        self,
        trajectories,
        t: float,
        ego: VehicleState,
        stamped: Dict[int, VehicleState],
        terminal: bool,
    ) -> None:
        if not self._config.record_trajectories:
            return
        trajectories[0].append(t, ego)
        for i, vehicle_state in stamped.items():
            trajectories[i].append(t, vehicle_state)


# ---------------------------------------------------------------------------
# Module-level episode entry point
# ---------------------------------------------------------------------------
def run_episode(
    engine: SimulationEngine,
    planner: Planner,
    estimator_factory: EstimatorFactory,
    rng: RngStream,
    observer=None,
) -> SimulationResult:
    """Run one scalar episode — the stable batching contract.

    The lockstep batch engine will run thousands of episodes in lock
    step while keeping this function's semantics as its per-lane
    specification, so its effect envelope is the contract
    the migration certifies against: ``repro-lint --batch-report
    run_episode`` reports every effectful function reachable from here,
    and SFL301 forbids anything in that set from mutating module-global
    state.

    Effects: mutates-args, draws-rng
    """
    return engine.run(planner, estimator_factory, rng, observer=observer)
