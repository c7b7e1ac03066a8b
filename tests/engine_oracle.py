"""Test-only oracle: the engine loop the flat-float one replaced.

This is ``SimulationEngine.run`` as it stood before the control step was
rewritten on a per-episode float record: every vehicle's state a
:class:`~repro.dynamics.state.VehicleState` stepped by
``VehicleModel.step``, a :class:`~repro.dynamics.state.SystemState` built
every step whose positions feed the terminal checks, and the planner
called through ``plan_floats`` on the ego state's fields every step
(under a fault plan through :func:`faulted_plan`, the planner hook the
fault plan had before it wrapped the planner's float entry).  It is
kept as the slow counterpart of the fast path (it hands profiles,
sensors and channels the stamped state's fields, as their float
signatures ask);
``tests/test_engine_oracle.py`` checks the two against each other
episode by episode.

:func:`run` has the signature of ``SimulationEngine.run`` and reads the
engine's private state, so it can be called on any engine (or patched
onto the class).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.comm.channel import Channel
from repro.dynamics.state import SystemState, VehicleState
from repro.dynamics.trajectory import Trajectory
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import SafetyViolationError, SimulationError
from repro.faults.plan import FaultInjector, PlannerFaultKind
from repro.obs.observer import resolve_observer
from repro.planners.base import Planner, clipped
from repro.sensing.sensor import Sensor
from repro.sim.engine import EstimatorFactory
from repro.sim.results import Outcome, SimulationResult
from repro.utils.rng import RngStream

__all__ = ["faulted_plan", "run"]


def faulted_plan(
    injector: FaultInjector,
    step: int,
    planner: Planner,
    time: float,
    ego: VehicleState,
    estimates,
    limits: VehicleLimits,
) -> Tuple[float, bool]:
    """Run one (possibly faulted) planner invocation.

    Returns ``(command, planner_was_called)``; the flag lets the loop
    skip decision telemetry for steps the planner never saw.  The
    command is not clipped.  Updates the injector's counter and last
    command as ``FaultInjector.planner_entry`` does.
    """
    fault = injector._active_planner_fault(step)
    if fault is None:
        command = planner.plan_floats(
            time, ego.position, ego.velocity, ego.acceleration, estimates
        )
        injector._last_command = command
        return command, True
    injector.planner_faults_injected += 1
    if fault.kind is PlannerFaultKind.NAN:
        return math.nan, False
    if fault.kind is PlannerFaultKind.LATENCY:
        if injector._last_command is None:
            return limits.a_min, False
        return injector._last_command, False
    # EXCEPTION: the planner process is down; watchdog brakes.
    return limits.a_min, False


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
            faults=self._comm.faults,
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
    # Only the compound planner exposes its monitor decision.
    probe_decision = hasattr(planner, "last_decision")

    record = self._config.record_trajectories
    trajectories = [Trajectory() for _ in range(n)] if record else []
    emergency_steps = 0
    planned_steps = 0
    outcome = Outcome.TIMEOUT
    collision_time: Optional[float] = None
    reaching_time: Optional[float] = None

    clock = self._clock
    dt = clock.dt_c
    message_every = clock.message_every
    sensor_every = clock.sensor_every
    n_steps = int(round(self._config.max_time / dt))
    ego_limits = scenario.vehicle_limits(0)
    strict = self._config.strict_safety

    # Per-episode lists indexed by vehicle (entry 0 is the ego's),
    # overwritten every step.  The methods are bound per episode, so
    # a class attribute patched before the run is what gets called.
    step_fns = [self._models[i].step for i in range(n)]
    commands = [0.0] * n
    stamped: List[Optional[VehicleState]] = [None] * n

    run_handle = obs.begin("engine.run", n_steps=n_steps) if traced else -1
    step_handle = -1
    for step in range(n_steps + 1):
        t = step * dt  # MultiRateClock.time_of
        if traced:
            step_handle = obs.begin("engine.step", step=step, t=t)
        vehicles = state.vehicles
        sensing = step % sensor_every == 0
        messaging = step % message_every == 0

        # 1. Non-ego commands for the coming step stamp the content
        #    of this step's messages and sensor readings, built only
        #    on steps that sense, send or record.
        stage = obs.begin("engine.profile") if traced else -1
        for i in others:
            vehicle = vehicles[i]
            commands[i] = profiles[i](
                step, t, vehicle.position, vehicle.velocity, vehicle.acceleration
            )
        if sensing or messaging or record:
            for i in others:
                stamped[i] = vehicles[i].with_acceleration(commands[i])
        if traced:
            obs.end(stage)

        # 2-4. Sensing, transmission, delivery.  Faulted sensors still
        # draw their noise (the reading is taken, then filtered), so a
        # dropout never shifts the random sequence of later readings.
        if sensing:
            stage = obs.begin("engine.sense") if traced else -1
            for i in others:
                s = stamped[i]
                reading = sensors[i].measure(
                    t, s.position, s.velocity, s.acceleration
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
        if messaging:
            for i in others:
                s = stamped[i]
                channels[i].send(i, t, s.position, s.velocity, s.acceleration)
        for i in others:
            for message in channels[i].receive(t):
                estimators[i].on_message(message, t)
        if traced:
            obs.end(stage)

        # 5. Terminal checks on the true joint state.
        positions = [vehicle.position for vehicle in state.vehicles]
        if scenario.is_collision_at(state.time, positions):
            collision_time = t
            outcome = Outcome.COLLISION
            if record:
                _record(trajectories, t, vehicles[0], stamped)
            if traced:
                obs.instant("engine.collision", t=t)
                obs.end(step_handle)
            if strict:
                raise SafetyViolationError(
                    f"planner entered the unsafe set at t={t:.3f}s"
                )
            break
        if scenario.reached_target_at(state.time, positions):
            reaching_time = t
            outcome = Outcome.REACHED
            if record:
                _record(trajectories, t, vehicles[0], stamped)
            if traced:
                obs.instant("engine.reached", t=t)
                obs.end(step_handle)
            break
        if step == n_steps:
            if record:
                _record(trajectories, t, vehicles[0], stamped)
            if traced:
                obs.end(step_handle)
            break

        # 6. Plan.
        stage = obs.begin("engine.estimate") if traced else -1
        estimates = {}
        for i in others:
            estimates[i] = estimators[i].estimate(t)
        if traced:
            obs.end(stage)
        stage = obs.begin("engine.plan") if traced else -1
        ego = vehicles[0]
        if injector is not None:
            ego_command, planner_called = faulted_plan(
                injector, step, planner, t, ego, estimates, ego_limits
            )
            # Injected NaN (and any out-of-range fault command) must
            # not corrupt the dynamics: sanitise like the compound
            # planner does.
            ego_command = clipped(ego_command, ego_limits)
        else:
            ego_command = planner.plan_floats(
                t, ego.position, ego.velocity, ego.acceleration, estimates
            )
            planner_called = True
        if traced:
            obs.end(stage)
        planned_steps += 1
        if probe_decision and planner_called:
            decision = planner.last_decision
            if decision is not None and decision.use_emergency:
                emergency_steps += 1

        if record:
            _record(
                trajectories, t, ego.with_acceleration(ego_command), stamped
            )

        # 7. Step the dynamics.
        stage = obs.begin("engine.act") if traced else -1
        new_vehicles = [step_fns[0](ego, ego_command, dt)]
        for i in others:
            new_vehicles.append(step_fns[i](vehicles[i], commands[i], dt))
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


def _record(
    trajectories: List[Trajectory],
    t: float,
    ego: VehicleState,
    stamped: List[Optional[VehicleState]],
) -> None:
    """Append one sample per vehicle: the ego's, then the stamped ones."""
    trajectories[0].append(t, ego)
    for i in range(1, len(trajectories)):
        trajectories[i].append(t, stamped[i])
