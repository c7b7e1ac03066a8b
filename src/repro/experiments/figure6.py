"""Figure 6: information-filter and aggressive-window effectiveness.

**6a** — the Kalman filter with message replay versus raw sensing: one
example velocity trace (true / measured / filtered) plus the RMSE of
position and velocity before and after the filter over a batch of
sampled oncoming-vehicle trajectories.  The paper reports the filter
cutting the position RMSE by 69 % and the velocity RMSE by 76 %; the
shape to reproduce is a large reduction in both.

**6b** — the conservative (Eq. (7)) versus aggressive (Eq. (8)) passing
window along one trajectory, against the true passing interval: the
aggressive window must be nested inside the conservative one and hug the
true passing times.

Run with ``python -m repro.experiments.figure6 [--trajectories N]``.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm.channel import Channel
from repro.comm.faults import messages_delayed
from repro.dynamics.profiles import RandomSequenceProfile
from repro.dynamics.vehicle import VehicleModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import render_series
from repro.filtering.kalman import KalmanFilter
from repro.filtering.replay import ReplayKalmanFilter
from repro.filtering.fusion import FusedEstimate
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import Sensor
from repro.utils.rng import RngStream, spawn_streams

__all__ = ["FilterStudy", "run_filter_study", "run_window_study", "main"]


@dataclass
class FilterStudy:
    """Aggregate outcome of the figure-6a experiment."""

    n_trajectories: int
    rmse_position_raw: float
    rmse_position_filtered: float
    rmse_velocity_raw: float
    rmse_velocity_filtered: float
    #: One example trace: (times, true_v, measured_v, filtered_v).
    example: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def position_reduction(self) -> float:
        """Fractional RMSE reduction in position (paper: 0.69)."""
        return 1.0 - self.rmse_position_filtered / self.rmse_position_raw

    @property
    def velocity_reduction(self) -> float:
        """Fractional RMSE reduction in velocity (paper: 0.76)."""
        return 1.0 - self.rmse_velocity_filtered / self.rmse_velocity_raw


def _one_trajectory(
    config: ExperimentConfig,
    scenario: LeftTurnScenario,
    rng: RngStream,
    horizon: float,
) -> Tuple[np.ndarray, ...]:
    """Simulate one sensed+filtered trajectory of the oncoming vehicle.

    Returns arrays (per sensing instant): true p, true v, measured p,
    measured v, filtered p, filtered v, and the sample times.
    """
    bounds = NoiseBounds.uniform_all(config.lost_sensor_delta)
    init_rng, sensor_rng, channel_rng, profile_rng = rng.spawn(4)
    state = scenario.initial_state(init_rng).vehicle(1)
    model = VehicleModel(scenario.oncoming_limits)
    profile = RandomSequenceProfile(
        profile_rng, *scenario.profile_accel_range
    )
    sensor = Sensor(target=1, period=config.dt_s, bounds=bounds, rng=sensor_rng)
    channel = Channel(
        period=config.dt_m,
        rng=channel_rng,
        faults=messages_delayed(config.message_delay, 0.3),
    )
    rkf = ReplayKalmanFilter(KalmanFilter(bounds))

    dt = config.dt_c
    n_steps = int(round(horizon / dt))
    sensor_every = int(round(config.dt_s / dt))
    message_every = int(round(config.dt_m / dt))

    rows = []
    for step in range(n_steps):
        t = step * dt
        accel = profile(step, t, state.position, state.velocity, state.acceleration)
        stamped = state.with_acceleration(accel)
        if step % message_every == 0:
            channel.send(
                1, t, stamped.position, stamped.velocity, stamped.acceleration
            )
        for message in channel.receive(t):
            rkf.on_message(message, t)
        if step % sensor_every == 0:
            reading = sensor.measure(
                t, stamped.position, stamped.velocity, stamped.acceleration
            )
            posterior = rkf.on_sensor_reading(reading)
            rows.append(
                (
                    t,
                    stamped.position,
                    stamped.velocity,
                    reading.position,
                    reading.velocity,
                    posterior.position,
                    posterior.velocity,
                )
            )
        state = model.step(state, accel, dt)
    arr = np.asarray(rows)
    return tuple(arr[:, i] for i in range(arr.shape[1]))


def run_filter_study(
    config: ExperimentConfig,
    n_trajectories: int = 200,
    horizon: float = 8.0,
    seed: int = 60,
) -> FilterStudy:
    """Fig. 6a: RMSE before/after the filter over sampled trajectories."""
    scenario = config.scenario()
    sq_p_raw = sq_p_f = sq_v_raw = sq_v_f = 0.0
    count = 0
    example: Optional[Tuple[np.ndarray, ...]] = None
    for stream in spawn_streams(seed, n_trajectories):
        t, p, v, p_m, v_m, p_f, v_f = _one_trajectory(
            config, scenario, stream, horizon
        )
        if example is None:
            example = (t, v, v_m, v_f)
        sq_p_raw += float(np.sum((p_m - p) ** 2))
        sq_p_f += float(np.sum((p_f - p) ** 2))
        sq_v_raw += float(np.sum((v_m - v) ** 2))
        sq_v_f += float(np.sum((v_f - v) ** 2))
        count += len(t)
    assert example is not None
    return FilterStudy(
        n_trajectories=n_trajectories,
        rmse_position_raw=math.sqrt(sq_p_raw / count),
        rmse_position_filtered=math.sqrt(sq_p_f / count),
        rmse_velocity_raw=math.sqrt(sq_v_raw / count),
        rmse_velocity_filtered=math.sqrt(sq_v_f / count),
        example=example,
    )


# ----------------------------------------------------------------------
# Figure 6b
# ----------------------------------------------------------------------
def run_window_study(
    config: ExperimentConfig,
    seed: int = 61,
    horizon: float = 6.0,
    sample_every: float = 0.25,
) -> Dict[str, object]:
    """Fig. 6b: conservative vs aggressive windows along one trajectory.

    Both windows are computed from the *true* state (the paper's
    illustration assumes perfect information here), sampled every
    ``sample_every`` seconds; the true passing interval is read off the
    simulated trajectory.
    """
    scenario = config.scenario()
    stream = RngStream(seed)
    init_rng, profile_rng = stream.spawn(2)
    state = scenario.initial_state(init_rng).vehicle(1)
    model = VehicleModel(scenario.oncoming_limits)
    profile = RandomSequenceProfile(profile_rng, *scenario.profile_accel_range)
    geometry = scenario.geometry
    conservative = PassingWindowEstimator(geometry, scenario.oncoming_limits)
    aggressive = PassingWindowEstimator(
        geometry,
        scenario.oncoming_limits,
        aggressive=True,
        a_buf=config.a_buf,
        v_buf=config.v_buf,
    )

    dt = config.dt_c
    n_steps = int(round(horizon / dt))
    stride = max(1, int(round(sample_every / dt)))

    times: List[float] = []
    series: Dict[str, List[float]] = {
        "cons_lo": [],
        "cons_hi": [],
        "aggr_lo": [],
        "aggr_hi": [],
    }
    true_entry: Optional[float] = None
    true_exit: Optional[float] = None

    for step in range(n_steps):
        t = step * dt
        accel = profile(step, t, state.position, state.velocity, state.acceleration)
        stamped = state.with_acceleration(accel)
        if true_entry is None and geometry.oncoming_inside(stamped.position):
            true_entry = t
        if (
            true_entry is not None
            and true_exit is None
            and geometry.oncoming_cleared(stamped.position)
        ):
            true_exit = t
        if step % stride == 0 and not geometry.oncoming_cleared(
            stamped.position
        ):
            p, v, a = stamped.position, stamped.velocity, stamped.acceleration
            estimate = FusedEstimate.of(t, p, p, v, v, p, v, a, 0.0)
            cons_lo, cons_hi = conservative.bounds(estimate)
            aggr_lo, aggr_hi = aggressive.bounds(estimate)
            times.append(t)
            series["cons_lo"].append(cons_lo)
            series["cons_hi"].append(min(cons_hi, 60.0))
            series["aggr_lo"].append(aggr_lo)
            series["aggr_hi"].append(min(aggr_hi, 60.0))
        state = model.step(state, accel, dt)

    return {
        "times": times,
        "series": series,
        "true_entry": true_entry,
        "true_exit": true_exit,
    }


def render_filter_study(study: FilterStudy) -> str:
    """Fig. 6a as text: example trace plus the RMSE summary."""
    t, v_true, v_meas, v_filt = study.example
    stride = max(1, len(t) // 20)
    trace = render_series(
        "Fig. 6a example: measured vs filtered velocity (m/s)",
        "time (s)",
        t[::stride],
        {
            "true": list(v_true[::stride]),
            "measured": list(v_meas[::stride]),
            "filtered": list(v_filt[::stride]),
        },
    )
    summary = (
        f"RMSE over {study.n_trajectories} trajectories:\n"
        f"  position: raw={study.rmse_position_raw:.3f}m "
        f"filtered={study.rmse_position_filtered:.3f}m "
        f"(reduction {100 * study.position_reduction:.1f}%; paper: 69%)\n"
        f"  velocity: raw={study.rmse_velocity_raw:.3f}m/s "
        f"filtered={study.rmse_velocity_filtered:.3f}m/s "
        f"(reduction {100 * study.velocity_reduction:.1f}%; paper: 76%)"
    )
    return trace + "\n\n" + summary


def render_window_study(study: Dict[str, object]) -> str:
    """Fig. 6b as text."""
    table = render_series(
        "Fig. 6b: passing-window estimates (absolute seconds)",
        "time (s)",
        study["times"],
        study["series"],
    )
    entry = study["true_entry"]
    exit_ = study["true_exit"]
    footer = (
        f"true passing interval: "
        f"[{entry if entry is not None else 'n/a'}, "
        f"{exit_ if exit_ is not None else 'n/a'}]"
    )
    return table + "\n" + footer


def main(argv=None) -> str:
    """CLI entry point: run and print both figure-6 studies."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trajectories", type=int, default=200, help="figure 6a sample size"
    )
    args = parser.parse_args(argv)
    config = ExperimentConfig()
    text = (
        render_filter_study(
            run_filter_study(config, n_trajectories=args.trajectories)
        )
        + "\n\n"
        + render_window_study(run_window_study(config))
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
