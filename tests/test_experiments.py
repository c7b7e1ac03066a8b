"""Tests for the experiment configuration, harness, and reporting."""

import math
from dataclasses import replace

import pytest

from repro.comm.faults import IndependentLoss, NoFault
from repro.experiments.config import SETTING_NAMES, ExperimentConfig
from repro.experiments.figure6 import run_filter_study, run_window_study
from repro.experiments.harness import (
    SettingRow,
    build_trio,
    run_setting,
    trained_spec,
)
from repro.experiments.reporting import (
    format_value,
    render_series,
    render_table_rows,
)
from repro.planners.training_data import DemonstrationConfig
from repro.sim.results import AggregateStats, Outcome, SimulationResult

#: A configuration small enough for unit tests (seconds, not minutes).
TINY = ExperimentConfig(
    n_sims=6,
    demo_config=DemonstrationConfig(n_random=200, n_rollouts=2),
    epochs=8,
    hidden=16,
    training_seed=21,
)


class TestConfig:
    def test_paper_constants(self):
        cfg = ExperimentConfig()
        assert cfg.dt_c == 0.05
        assert cfg.dt_m == cfg.dt_s
        assert cfg.message_delay == 0.25

    def test_named_settings(self):
        cfg = ExperimentConfig()
        for name in SETTING_NAMES:
            comm = cfg.comm_setting(name)
            assert comm.dt_m == cfg.dt_m
        assert cfg.comm_setting("messages_lost").faults == IndependentLoss(1.0)
        assert cfg.comm_setting("no_disturbance").faults == NoFault()

    def test_unknown_setting_rejected(self):
        with pytest.raises(KeyError):
            ExperimentConfig().comm_setting("smoke_signals")

    def test_with_sims(self):
        assert ExperimentConfig().with_sims(77).n_sims == 77


class TestTrainedSpecCache:
    def test_cached_by_settings(self):
        a = trained_spec("conservative", TINY)
        b = trained_spec("conservative", TINY)
        assert a is b

    def test_distinct_styles_distinct_specs(self):
        a = trained_spec("conservative", TINY)
        b = trained_spec("aggressive", TINY)
        assert a is not b
        assert b.style == "aggressive"


class TestRunSetting:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_setting("aggressive", "no_disturbance", TINY)

    def test_three_rows(self, rows):
        assert {r.planner_type for r in rows} == {"pure", "basic", "ultimate"}

    def test_batch_sizes(self, rows):
        for row in rows:
            assert row.stats.n_runs == TINY.n_sims

    def test_ultimate_has_no_winning_column(self, rows):
        by_type = {r.planner_type: r for r in rows}
        assert by_type["ultimate"].ultimate_wins is None
        assert by_type["pure"].ultimate_wins is not None

    def test_compound_rows_are_safe(self, rows):
        by_type = {r.planner_type: r for r in rows}
        assert by_type["basic"].stats.safe_rate == 1.0
        assert by_type["ultimate"].stats.safe_rate == 1.0

    def test_trio_builder(self):
        spec = trained_spec("aggressive", TINY)
        trio = build_trio(spec, TINY.scenario(), TINY)
        assert trio.pure.window_estimator.aggressive
        assert not trio.basic.nn_planner.window_estimator.aggressive
        assert trio.ultimate.nn_planner.window_estimator.aggressive


class TestReporting:
    def test_format_value(self):
        assert format_value(None, "seconds") == "-"
        assert format_value(float("nan"), "seconds") == "n/a"
        assert format_value(6.4056, "seconds") == "6.406s"
        assert format_value(0.9997, "percent") == "99.97%"
        assert format_value(0.144, "eta") == "+0.144"
        with pytest.raises(ValueError):
            format_value(1.0, "furlongs")

    def test_render_table_rows(self):
        stats = AggregateStats.from_results(
            [
                SimulationResult(
                    outcome=Outcome.REACHED, reaching_time=5.0, steps=100
                )
            ]
        )
        row = SettingRow(
            setting="no_disturbance",
            planner_type="pure",
            stats=stats,
            ultimate_wins=0.5,
            results=[],
        )
        text = render_table_rows([row], "Title")
        assert "Title" in text
        assert "no_disturbance" in text
        assert "5.000s" in text
        assert "50.00%" in text

    def test_render_series(self):
        text = render_series(
            "Fig", "x", [1.0, 2.0], {"a": [0.1, 0.2], "b": [1.0, 2.0]}
        )
        assert "Fig" in text
        assert "0.1000" in text

    def test_render_series_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("Fig", "x", [1.0], {"a": [0.1, 0.2]})


class TestFigure6:
    def test_filter_study_reduces_rmse(self):
        study = run_filter_study(TINY, n_trajectories=8, horizon=4.0)
        assert study.rmse_position_filtered < study.rmse_position_raw
        assert study.rmse_velocity_filtered < study.rmse_velocity_raw
        assert 0.0 < study.position_reduction < 1.0

    def test_window_study_shapes(self):
        study = run_window_study(TINY, horizon=5.0)
        series = study["series"]
        times = study["times"]
        assert len(times) > 5
        for i in range(len(times)):
            # Aggressive window nested inside the conservative one.
            assert series["cons_lo"][i] <= series["aggr_lo"][i] + 1e-6
            assert series["aggr_hi"][i] <= series["cons_hi"][i] + 1e-6

    def test_window_study_brackets_true_passing(self):
        study = run_window_study(TINY, horizon=8.0)
        entry = study["true_entry"]
        exit_ = study["true_exit"]
        if entry is None or exit_ is None:
            pytest.skip("trajectory did not traverse within the horizon")
        series = study["series"]
        assert series["cons_lo"][0] <= entry + 1e-6
        assert series["cons_hi"][0] >= exit_ - 1e-6
