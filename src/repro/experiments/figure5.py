"""Figure 5: reaching time and emergency frequency vs disturbance severity.

Three sweeps over the conservative planner family (the figure's caption:
``kappa_{n,cons}``, ``kappa_{cb,cons}``, ``kappa_{cu,cons}``):

* **5a/5b** — transmission time step ``dt_m = dt_s`` (no drops/delay);
* **5c/5d** — message drop probability ``p_d`` (fixed delay 0.25 s);
* **5e/5f** — sensor uncertainty ``delta`` (messages always lost).

Shapes the harness must reproduce: reaching time grows with every kind
of disturbance for all planners; the ultimate compound planner stays
fastest with the gap widening as disturbance grows; emergency frequency
rises with disturbance and is highest for the ultimate planner (it rides
the monitor by design).

Run with ``python -m repro.experiments.figure5 [--sims N]``.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.comm.faults import (
    messages_delayed,
    messages_lost,
    no_disturbance,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_trio
from repro.experiments.reporting import render_series
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup
from repro.sim.results import AggregateStats

__all__ = [
    "TRANSMISSION_STEPS",
    "DROP_PROBABILITIES",
    "SENSOR_DELTAS",
    "sweep_transmission",
    "sweep_drop",
    "sweep_sensor",
    "main",
]

#: Default sweep grids (subsampled from the paper's 20-point grids; the
#: full grids are a CLI/constructor choice away).
TRANSMISSION_STEPS: Tuple[float, ...] = (0.1, 0.2, 0.4, 0.8, 1.6)
DROP_PROBABILITIES: Tuple[float, ...] = (0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
SENSOR_DELTAS: Tuple[float, ...] = (1.0, 1.6, 2.2, 2.8, 3.4, 4.0, 4.6)

#: Series produced per sweep point.
SweepResult = Dict[str, Dict[str, List[float]]]


def _collect(
    style: str,
    comms: Sequence[CommSetup],
    config: ExperimentConfig,
) -> SweepResult:
    """Run the trio at each sweep point; collect both figure series."""
    reaching: Dict[str, List[float]] = {"pure": [], "basic": [], "ultimate": []}
    emergency: Dict[str, List[float]] = {"basic": [], "ultimate": []}
    for comm in comms:
        batches = run_trio(style, comm, config)
        for name in reaching:
            stats = AggregateStats.from_results(batches[name])
            reaching[name].append(stats.mean_reaching_time)
        for name in emergency:
            stats = AggregateStats.from_results(batches[name])
            emergency[name].append(stats.mean_emergency_frequency)
    return {"reaching_time": reaching, "emergency_frequency": emergency}


def sweep_transmission(
    config: ExperimentConfig,
    steps: Sequence[float] = TRANSMISSION_STEPS,
) -> SweepResult:
    """Fig. 5a/5b: sweep the transmission (and sensing) period."""
    comms = [
        CommSetup(
            dt_m=step,
            dt_s=step,
            faults=no_disturbance(),
            sensor_bounds=NoiseBounds.uniform_all(config.base_sensor_delta),
        )
        for step in steps
    ]
    return _collect("conservative", comms, config)


def sweep_drop(
    config: ExperimentConfig,
    probabilities: Sequence[float] = DROP_PROBABILITIES,
) -> SweepResult:
    """Fig. 5c/5d: sweep the message drop probability."""
    comms = [
        CommSetup(
            dt_m=config.dt_m,
            dt_s=config.dt_s,
            faults=messages_delayed(config.message_delay, p),
            sensor_bounds=NoiseBounds.uniform_all(config.base_sensor_delta),
        )
        for p in probabilities
    ]
    return _collect("conservative", comms, config)


def sweep_sensor(
    config: ExperimentConfig,
    deltas: Sequence[float] = SENSOR_DELTAS,
) -> SweepResult:
    """Fig. 5e/5f: sweep the sensor uncertainty with messages lost."""
    comms = [
        CommSetup(
            dt_m=config.dt_m,
            dt_s=config.dt_s,
            faults=messages_lost(),
            sensor_bounds=NoiseBounds.uniform_all(delta),
        )
        for delta in deltas
    ]
    return _collect("conservative", comms, config)


def render_sweep(
    title_prefix: str,
    x_label: str,
    xs: Sequence[float],
    sweep: SweepResult,
    charts: bool = True,
) -> str:
    """Both panels of one sweep as text tables (plus terminal charts)."""
    parts = [
        render_series(
            f"{title_prefix}: reaching time (s)",
            x_label,
            xs,
            sweep["reaching_time"],
        ),
        render_series(
            f"{title_prefix}: emergency frequency",
            x_label,
            xs,
            sweep["emergency_frequency"],
        ),
    ]
    if charts and len(xs) >= 2:
        from repro.analysis.text_plot import line_chart

        parts.append(
            line_chart(
                xs,
                sweep["reaching_time"],
                width=56,
                height=10,
                title=f"{title_prefix} (chart): reaching time vs {x_label}",
                y_label="reaching time (s)",
            )
        )
    return "\n\n".join(parts)


def main(argv=None) -> str:
    """CLI entry point: run and print all three sweeps."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sims", type=int, default=None, help="runs per point")
    args = parser.parse_args(argv)
    config = ExperimentConfig()
    if args.sims is not None:
        config = config.with_sims(args.sims)
    # Sweep batches are per-point, so a smaller default is sensible.
    if args.sims is None:
        config = replace(config, n_sims=max(60, config.n_sims // 3))

    sections = [
        render_sweep(
            "Fig. 5a/5b",
            "dt_m=dt_s (s)",
            TRANSMISSION_STEPS,
            sweep_transmission(config),
        ),
        render_sweep(
            "Fig. 5c/5d",
            "drop prob",
            DROP_PROBABILITIES,
            sweep_drop(config),
        ),
        render_sweep(
            "Fig. 5e/5f",
            "sensor delta",
            SENSOR_DELTAS,
            sweep_sensor(config),
        ),
    ]
    text = "\n\n".join(sections)
    print(text)
    return text


if __name__ == "__main__":
    main()
