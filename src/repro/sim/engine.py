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
from typing import Callable, List, Optional

from repro.comm.channel import Channel
from repro.comm.faults import FaultModel, NoFault
from repro.dynamics.state import VehicleState
from repro.dynamics.trajectory import Trajectory
from repro.dynamics.vehicle import VehicleModel
from repro.errors import (
    ConfigurationError,
    SafetyViolationError,
    SimulationError,
)
from repro.faults.plan import FaultInjector, FaultPlan
from repro.filtering.info_filter import EstimateProvider
from repro.obs.observer import resolve_observer
from repro.planners.base import Planner
from repro.scenarios.base import Scenario
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import Sensor
from repro.sim.clock import MultiRateClock
from repro.sim.results import Outcome, SimulationResult
from repro.utils.rng import RngStream, child_seed
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
    faults:
        The fault model of every channel (:mod:`repro.comm.faults`):
        one of the paper's presets (:func:`~repro.comm.faults.no_disturbance`,
        :func:`~repro.comm.faults.messages_delayed`,
        :func:`~repro.comm.faults.messages_lost`) or any composition of
        loss, delay, jitter and duplication stages.
    sensor_bounds:
        Uniform noise bounds of the onboard sensor.

    Units: dt_m [s], dt_s [s]
    """

    dt_m: float
    dt_s: float
    faults: FaultModel
    sensor_bounds: NoiseBounds

    def __post_init__(self) -> None:
        if not isinstance(self.faults, FaultModel):
            raise ConfigurationError(
                f"comm faults must be a FaultModel, got {self.faults!r}"
            )

    @classmethod
    def perfect(cls, dt_m: float = 0.1) -> "CommSetup":
        """Lossless, immediate messages and noiseless sensing."""
        return cls(
            dt_m=dt_m,
            dt_s=dt_m,
            faults=NoFault(),
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
            The ego planner, called through its ``plan_floats``; if it exposes
            ``reset()`` (the compound planner does) it is reset first,
            and if it exposes a ``monitor`` (the compound planner does)
            the episode's emergency steps are that monitor's
            ``emergency_decisions``.
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

        # Children 0-4 of the run's stream seed the initial state, the
        # profiles, the channels, the sensors and fault-plan activation;
        # spawning child 4 unconditionally keeps children 0-3 (and so
        # every fault-free run) byte-identical to the pre-fault engine.
        # Vehicle i's profile, channel and sensor streams are child i of
        # children 1-3.  Only the streams the episode draws from are
        # built: the ego has none of the three, and the fault stream is
        # drawn from only under a fault plan.
        init_seed, profile_seed, channel_seed, sensor_seed, fault_seed = (
            rng.spawn_seeds(5)
        )

        state = scenario.initial_state(RngStream(init_seed))
        # Per-vehicle objects in lists indexed by vehicle; the ego (index
        # 0) has none, so its slot holds None.
        profiles = [None] + [
            scenario.profile_for(i, RngStream(child_seed(profile_seed, i)))
            for i in others
        ]
        channels = [None] + [
            Channel(
                period=self._comm.dt_m,
                rng=RngStream(child_seed(channel_seed, i)),
                faults=self._comm.faults,
                observer=obs,
                name=f"veh{i}",
            )
            for i in others
        ]
        injector: Optional[FaultInjector] = None
        if self._config.fault_plan is not None and not self._config.fault_plan.is_empty:
            injector = self._config.fault_plan.compile(RngStream(fault_seed))
        sensors = [None] + [
            Sensor(
                target=i,
                period=self._comm.dt_s,
                bounds=self._comm.sensor_bounds,
                rng=RngStream(child_seed(sensor_seed, i)),
            )
            for i in others
        ]
        estimators = [None] + [estimator_factory(i) for i in others]

        if hasattr(planner, "reset"):
            planner.reset()
        ego_limits = scenario.vehicle_limits(0)
        # The planner's one entry, under a fault plan behind its planner
        # faults and command clipping.  A traced run hands it the
        # observer, so the layers report their spans.
        plan = planner.plan_floats
        if injector is not None:
            plan = injector.planner_entry(plan, ego_limits)
        tracer = obs if traced else None

        record = self._config.record_trajectories
        trajectories = [Trajectory() for _ in range(n)] if record else []
        planned_steps = 0
        outcome = Outcome.TIMEOUT
        collision_time: Optional[float] = None
        reaching_time: Optional[float] = None

        clock = self._clock
        dt = clock.dt_c
        message_every = clock.message_every
        sensor_every = clock.sensor_every
        n_steps = int(round(self._config.max_time / dt))
        strict = self._config.strict_safety

        # The episode's float record, one entry per vehicle (index 0 is
        # the ego): position, velocity, the acceleration applied over
        # the last step, and the command for the coming one.  The
        # integrators are bound per episode, so a class attribute
        # patched before the run is what gets called.
        positions = [vehicle.position for vehicle in state.vehicles]
        velocities = [vehicle.velocity for vehicle in state.vehicles]
        accels = [vehicle.acceleration for vehicle in state.vehicles]
        commands = [0.0] * n
        advance = [self._models[i].advance for i in range(n)]
        state_time = state.time

        run_handle = obs.begin("engine.run", n_steps=n_steps) if traced else -1
        step_handle = -1
        for step in range(n_steps + 1):
            t = step * dt  # MultiRateClock.time_of
            if traced:
                step_handle = obs.begin("engine.step", step=step, t=t)

            # 1. Non-ego commands for the coming step.  A vehicle's
            #    position, velocity and command are the stamped state
            #    its sensor reading and message carry this step.
            stage = obs.begin("engine.profile") if traced else -1
            for i in others:
                commands[i] = profiles[i](
                    step, t, positions[i], velocities[i], accels[i]
                )
            if traced:
                obs.end(stage)

            # 2-4. Sensing, transmission, delivery.  Faulted sensors still
            # draw their noise (the reading is taken, then filtered), so a
            # dropout never shifts the random sequence of later readings.
            if step % sensor_every == 0:
                stage = obs.begin("engine.sense") if traced else -1
                for i in others:
                    reading = sensors[i].measure(
                        t, positions[i], velocities[i], commands[i]
                    )
                    if injector is not None:
                        faulted = injector.apply_sensor(step, i, reading)
                        if faulted is None:
                            continue
                        reading = faulted
                    estimators[i].on_sensor_reading(reading)
                if traced:
                    obs.end(stage)
            stage = obs.begin("engine.comm") if traced else -1
            if step % message_every == 0:
                for i in others:
                    channels[i].send(
                        i, t, positions[i], velocities[i], commands[i]
                    )
            for i in others:
                for message in channels[i].receive(t):
                    estimators[i].on_message(message, t)
            if traced:
                obs.end(stage)

            # 5. Terminal checks on the true joint state.
            collided = scenario.is_collision_at(state_time, positions)
            reached = not collided and scenario.reached_target_at(
                state_time, positions
            )
            if collided or reached or step == n_steps:
                if collided:
                    collision_time = t
                    outcome = Outcome.COLLISION
                elif reached:
                    reaching_time = t
                    outcome = Outcome.REACHED
                if record:
                    _record(
                        trajectories, t, positions, velocities, accels[0], commands
                    )
                if traced:
                    if collided:
                        obs.instant("engine.collision", t=t)
                    elif reached:
                        obs.instant("engine.reached", t=t)
                    obs.end(step_handle)
                if collided and strict:
                    raise SafetyViolationError(
                        f"planner entered the unsafe set at t={t:.3f}s"
                    )
                break

            # 6. Plan.
            stage = obs.begin("engine.estimate") if traced else -1
            estimates = {}
            for i in others:
                estimates[i] = estimators[i].estimate(t)
            if traced:
                obs.end(stage)
            stage = obs.begin("engine.plan") if traced else -1
            ego_command = plan(
                t, positions[0], velocities[0], accels[0], estimates, tracer
            )
            if traced:
                obs.end(stage)
            planned_steps += 1

            if record:
                _record(
                    trajectories, t, positions, velocities, ego_command, commands
                )

            # 7. Step the dynamics.
            stage = obs.begin("engine.act") if traced else -1
            commands[0] = ego_command
            for i in range(n):
                if traced:
                    handle = obs.begin("dynamics.step")
                positions[i], velocities[i], accels[i] = advance[i](
                    positions[i], velocities[i], commands[i], dt
                )
                if traced:
                    obs.end(handle)
            state_time = t + dt
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
        # The compound planner's monitor counted the steps it handed to
        # the emergency planner; it was reset with the planner above.
        monitor = getattr(planner, "monitor", None)
        emergency_steps = 0 if monitor is None else monitor.emergency_decisions

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


def _record(
    trajectories: List[Trajectory],
    t: float,
    positions: List[float],
    velocities: List[float],
    ego_acceleration: float,
    commands: List[float],
) -> None:
    """Append one sample per vehicle: the ego's, then the stamped ones.

    The ego's sample carries ``ego_acceleration``; every other vehicle's
    its command for the coming step, as its reading and message do.

    Units: t [s], positions [m], velocities [m/s], ego_acceleration [m/s^2]
    Units: commands [m/s^2]
    """
    trajectories[0].append(
        t, VehicleState(positions[0], velocities[0], float(ego_acceleration))
    )
    for i in range(1, len(trajectories)):
        trajectories[i].append(
            t, VehicleState(positions[i], velocities[i], float(commands[i]))
        )


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
