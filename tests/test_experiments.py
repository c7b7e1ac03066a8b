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

#: ``run_filter_study(TINY, n_trajectories=8, horizon=4.0)``'s raw and
#: filtered RMSEs as first computed (Fig. 6a), bit for bit.
_FIG6A_PIN = (
    1.1225849675028954,
    0.21868528736805465,
    1.1051276665988803,
    0.3372305063113878,
)

#: ``run_window_study(TINY, horizon=8.0)`` as first computed (Fig. 6b);
#: the windows it reports must not move by a single bit.
_FIG6B_PIN = {
    "times": [
        0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25,
        2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75,
    ],
    "series": {
        "cons_lo": [
            2.6276954864443547, 2.7716693291051517, 2.9095495605119694, 2.9973398807526004,
            3.1154487520749345, 3.1951798372234643, 3.305394542867602, 3.3957486223034694,
            3.481492813602997, 3.558715435276013, 3.6259401114446703, 3.6757158170142925,
            3.717527663614179, 3.7576628810334696, 3.793984667796655, 3.8070178918063253,
            4.0, 4.25, 4.5, 4.75,
        ],
        "cons_hi": [
            17.983580977061674, 17.309838975059066, 16.61726347037549, 15.526968198025868,
            14.740165821259003, 13.635773808089464, 12.872042695896575, 11.965252547452657,
            11.06907701262501, 10.146347158183211, 9.185025778951879, 8.081430029514646,
            6.957948634061443, 5.9968703150236875, 5.503855514731994, 5.201801174465648,
            4.99991301744343, 4.924564001636082, 4.861420230902628, 4.842692003602409,
        ],
        "aggr_lo": [
            4.026325586233252, 3.8920255981190017, 5.410044150039552, 4.957907933369145,
            3.9058884948182744, 3.8815027701557447, 3.6595185189983823, 4.035268164065952,
            3.7693328683199527, 3.757352938079224, 3.7220103177763626, 3.7710242575896586,
            3.815941380176528, 3.822022571728752, 3.80167671437466, 3.8074165984995445,
            4.0, 4.25, 4.5, 4.75,
        ],
        "aggr_hi": [
            5.211336927711254, 5.305073398880935, 5.412399885801693, 5.306965921666716,
            5.312659515610845, 5.217511705597975, 4.994423576726355, 5.238136146466771,
            5.153202867427296, 5.059528289524639, 4.60057721403037, 4.929093004816622,
            5.006054633041714, 4.990777761930372, 4.8422310156111, 4.889211053532387,
            4.855996894132124, 4.842554402362498, 4.853771367987073, 4.8418490215140695,
        ],
    },
    "true_entry": 3.85,
    "true_exit": 4.8500000000000005,
}


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

    def test_filter_study_values_pinned(self):
        """Fig. 6a's RMSEs, bit for bit."""
        study = run_filter_study(TINY, n_trajectories=8, horizon=4.0)
        assert (
            study.rmse_position_raw,
            study.rmse_position_filtered,
            study.rmse_velocity_raw,
            study.rmse_velocity_filtered,
        ) == _FIG6A_PIN

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

    def test_window_study_values_pinned(self):
        """Fig. 6b's windows and true passing times, bit for bit."""
        study = run_window_study(TINY, horizon=8.0)
        assert study == _FIG6B_PIN
