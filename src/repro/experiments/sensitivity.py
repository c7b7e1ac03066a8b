"""Sensitivity of the ultimate planner to its tuning knobs.

The paper leaves two groups of knobs "user-defined" without guidance:

* the aggressive buffers ``a_buf`` / ``v_buf`` of Eq. (8) — larger
  buffers make the aggressive window more conservative (wider), smaller
  buffers make it hug the observed behaviour;
* the Kalman confidence half-width ``n_sigma`` of the information
  filter's band.

This harness sweeps both around the defaults and reports mean eta,
reaching time, and emergency frequency.  Measured shape (see the
benchmark): safety is flat at 100 % across the whole grid — the
monitor, not the knobs, owns safety.  Efficiency moves gently: tiny
buffers produce the tightest windows but push the NN into the monitor
most often (emergency braking costs time), so for a *conservative*
embedded planner modestly larger buffers trade monitor chatter for a
slightly wider window at a small net gain; only far larger buffers
degenerate toward the conservative window.  Narrower Kalman bands
(smaller ``n_sigma``) consistently help.

Run with ``python -m repro.experiments.sensitivity [--sims N]``.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Sequence, Tuple

from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import trained_spec
from repro.experiments.reporting import format_value
from repro.filtering.info_filter import InformationFilter
from repro.scenarios.left_turn.passing_time import PassingWindowEstimator
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.results import AggregateStats

__all__ = [
    "BUFFER_GRID",
    "N_SIGMA_GRID",
    "sweep_buffers",
    "sweep_n_sigma",
    "render_sensitivity",
    "main",
]

#: ``(a_buf, v_buf)`` pairs swept around the defaults (0.5, 1.0).
BUFFER_GRID: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.25, 0.5),
    (0.5, 1.0),
    (1.0, 2.0),
    (2.0, 4.0),
)

#: Kalman band half-widths swept around the default 3.
N_SIGMA_GRID: Tuple[float, ...] = (1.0, 2.0, 3.0, 5.0)


def _run_ultimate(
    config: ExperimentConfig,
    a_buf: float,
    v_buf: float,
    n_sigma: float,
    setting: str,
) -> AggregateStats:
    """One ultimate-planner cell with explicit knob values."""
    scenario = config.scenario()
    spec = trained_spec("conservative", config)
    estimator = PassingWindowEstimator(
        geometry=scenario.geometry,
        limits=scenario.oncoming_limits,
        aggressive=True,
        a_buf=a_buf,
        v_buf=v_buf,
    )
    planner = CompoundPlanner(
        nn_planner=spec.build_planner(estimator, scenario.ego_limits),
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
    )
    comm = config.comm_setting(setting)
    engine = SimulationEngine(
        scenario,
        comm,
        SimulationConfig(max_time=config.max_time, record_trajectories=False),
    )

    def factory(index: int) -> InformationFilter:
        return InformationFilter(
            limits=scenario.vehicle_limits(index),
            sensor_bounds=comm.sensor_bounds,
            sensing_period=comm.dt_s,
            n_sigma=n_sigma,
        )

    results = [
        engine.run(planner, factory, stream)
        for stream in _streams(config)
    ]
    return AggregateStats.from_results(results)


def _streams(config: ExperimentConfig):
    from repro.utils.rng import spawn_streams

    return spawn_streams(config.seed, config.n_sims)


def sweep_buffers(
    config: ExperimentConfig,
    grid: Sequence[Tuple[float, float]] = BUFFER_GRID,
    setting: str = "messages_lost",
) -> Dict[Tuple[float, float], AggregateStats]:
    """Sweep the Eq. (8) buffers at the default ``n_sigma``."""
    return {
        (a_buf, v_buf): _run_ultimate(config, a_buf, v_buf, 3.0, setting)
        for a_buf, v_buf in grid
    }


def sweep_n_sigma(
    config: ExperimentConfig,
    grid: Sequence[float] = N_SIGMA_GRID,
    setting: str = "messages_lost",
) -> Dict[float, AggregateStats]:
    """Sweep the Kalman confidence width at the default buffers."""
    return {
        n_sigma: _run_ultimate(
            config, config.a_buf, config.v_buf, n_sigma, setting
        )
        for n_sigma in grid
    }


def render_sensitivity(
    buffers: Dict[Tuple[float, float], AggregateStats],
    sigmas: Dict[float, AggregateStats],
) -> str:
    """Both sweeps as text tables."""
    lines: List[str] = [
        "Sensitivity of the ultimate compound planner (messages lost)",
        "",
        f"{'a_buf':>7} {'v_buf':>7} {'reaching':>9} {'safe':>8} "
        f"{'eta':>7} {'emergency':>10}",
    ]
    for (a_buf, v_buf), stats in buffers.items():
        lines.append(
            f"{a_buf:>7.2f} {v_buf:>7.2f} "
            f"{format_value(stats.mean_reaching_time, 'seconds'):>9} "
            f"{format_value(stats.safe_rate, 'percent'):>8} "
            f"{format_value(stats.mean_eta, 'eta'):>7} "
            f"{format_value(stats.mean_emergency_frequency, 'percent'):>10}"
        )
    lines.append("")
    lines.append(
        f"{'n_sigma':>7} {'reaching':>9} {'safe':>8} {'eta':>7} "
        f"{'emergency':>10}"
    )
    for n_sigma, stats in sigmas.items():
        lines.append(
            f"{n_sigma:>7.1f} "
            f"{format_value(stats.mean_reaching_time, 'seconds'):>9} "
            f"{format_value(stats.safe_rate, 'percent'):>8} "
            f"{format_value(stats.mean_eta, 'eta'):>7} "
            f"{format_value(stats.mean_emergency_frequency, 'percent'):>10}"
        )
    return "\n".join(lines)


def main(argv=None) -> str:
    """CLI entry point: run and print both sweeps."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sims", type=int, default=None)
    args = parser.parse_args(argv)
    config = ExperimentConfig()
    config = config.with_sims(args.sims if args.sims else 100)
    text = render_sensitivity(
        sweep_buffers(config), sweep_n_sigma(config)
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
