"""The paper's experimental constants (Section V) and this repo's defaults.

Paper parameters reproduced exactly:

* control period ``dt_c = 0.05 s``; ``dt_m = dt_s`` (0.1 s here);
* message delay ``dt_d = 0.25 s`` in the "messages delayed" setting;
* drop-probability sweep ``{0.05 j | j = 0..19}``;
* sensor-uncertainty sweep ``{1 + 0.2 j | j = 0..19}``;
* ego start ``p_0(0) = -30 m``; oncoming start pool ``{50.5 + 0.5 j}``;
* unsafe area ``[5, 15] m``.

Parameters the paper leaves unreported (initial speeds, NN architecture,
the representative ``p_d`` / ``delta`` of the table rows, the aggressive
buffers) are fixed here and recorded in EXPERIMENTS.md.  The paper runs
80 000 simulations per setting; the default here is a few hundred (the
shapes are stable well below 80 k) and scales up via ``n_sims``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.comm.faults import (
    FaultModel,
    messages_delayed,
    messages_lost,
    no_disturbance,
)
from repro.planners.training_data import DemonstrationConfig
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup

__all__ = ["ExperimentConfig", "PAPER", "SETTING_NAMES"]

#: The three communication settings of Tables I/II, in paper order.
SETTING_NAMES = ("no_disturbance", "messages_delayed", "messages_lost")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the reproduction experiments.

    Attributes
    ----------
    dt_c, dt_m, dt_s:
        Periods; the paper fixes ``dt_c = 0.05`` and ``dt_m = dt_s``.
    message_delay:
        ``dt_d`` of the delayed setting.
    table_drop_probability:
        The representative ``p_d`` used for the table rows (the paper
        sweeps it in Fig. 5c/d but does not say which value the tables
        use; 0.3 here).
    base_sensor_delta:
        Sensor uncertainty of the no-disturbance and delayed settings
        (the sweep's smallest value, 1.0).
    lost_sensor_delta:
        Sensor uncertainty of the messages-lost table rows (2.0 here;
        swept in Fig. 5e/f).
    n_sims:
        Simulations per (setting, planner) cell.
    seed:
        Batch seed; identical workloads across planners for the paired
        winning-percentage statistic.
    training_seed, demo_config, epochs, hidden:
        NN planner training settings.
    a_buf, v_buf:
        Aggressive unsafe-set buffers (Eq. (8); "user-defined" in the
        paper).
    max_time:
        Simulation horizon.
    """

    dt_c: float = 0.05
    dt_m: float = 0.1
    dt_s: float = 0.1
    message_delay: float = 0.25
    table_drop_probability: float = 0.3
    base_sensor_delta: float = 1.0
    lost_sensor_delta: float = 2.0
    n_sims: int = 300
    seed: int = 2023
    training_seed: int = 7
    demo_config: DemonstrationConfig = field(
        default_factory=lambda: DemonstrationConfig(
            n_random=4000, n_rollouts=80
        )
    )
    epochs: int = 200
    hidden: int = 64
    a_buf: float = 0.5
    v_buf: float = 1.0
    max_time: float = 30.0

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def scenario(self) -> LeftTurnScenario:
        """The paper's left-turn scenario at this control period."""
        return LeftTurnScenario(dt_c=self.dt_c)

    def comm_setting(self, name: str) -> CommSetup:
        """One of the three table communication settings by name."""
        settings: Dict[str, Tuple[FaultModel, float]] = {
            "no_disturbance": (no_disturbance(), self.base_sensor_delta),
            "messages_delayed": (
                messages_delayed(
                    self.message_delay, self.table_drop_probability
                ),
                self.base_sensor_delta,
            ),
            "messages_lost": (messages_lost(), self.lost_sensor_delta),
        }
        if name not in settings:
            raise KeyError(
                f"unknown setting {name!r}; expected one of {SETTING_NAMES}"
            )
        faults, delta = settings[name]
        return CommSetup(
            dt_m=self.dt_m,
            dt_s=self.dt_s,
            faults=faults,
            sensor_bounds=NoiseBounds.uniform_all(delta),
        )

    def with_sims(self, n_sims: int) -> "ExperimentConfig":
        """A copy with a different batch size."""
        from dataclasses import replace

        return replace(self, n_sims=n_sims)


#: The default configuration used by the benchmarks and EXPERIMENTS.md.
PAPER = ExperimentConfig()
