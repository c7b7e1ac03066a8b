"""The campaign manifest: validation, chunking, and fingerprinting."""

from __future__ import annotations

import math

import pytest

from repro.campaign.builders import (
    build_comm,
    build_config,
    build_planner,
    build_scenario,
)
from repro.campaign.manifest import CampaignManifest
from repro.comm.faults import NoFault
from repro.errors import CampaignError, SerializationError
from repro.sensing.noise import NoiseBounds


def _manifest(**overrides):
    fields = dict(
        name="demo",
        scenario={"kind": "left_turn"},
        comm={"sensor_noise": 0.5},
        planner={"kind": "constant", "acceleration": 1.0},
        n_sims=10,
        seed=7,
        chunk_size=4,
    )
    fields.update(overrides)
    return CampaignManifest(**fields)


class TestValidation:
    def test_accepts_well_formed_manifest(self):
        manifest = _manifest()
        assert manifest.estimator == "filtered"
        assert manifest.config == {}

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"n_sims": 0},
            {"n_sims": 2.5},
            {"chunk_size": 0},
            {"seed": "seven"},
            {"estimator": "oracle"},
            {"scenario": ["left_turn"]},
            {"planner": "constant"},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(CampaignError):
            _manifest(**overrides)


class TestChunking:
    def test_chunk_count_rounds_up(self):
        assert _manifest(n_sims=10, chunk_size=4).n_chunks == 3
        assert _manifest(n_sims=8, chunk_size=4).n_chunks == 2
        assert _manifest(n_sims=1, chunk_size=100).n_chunks == 1

    def test_chunks_partition_the_index_space(self):
        manifest = _manifest(n_sims=10, chunk_size=4)
        indices = []
        for chunk in range(manifest.n_chunks):
            indices.extend(manifest.chunk_indices(chunk))
        assert indices == list(range(10))

    def test_last_chunk_is_short(self):
        manifest = _manifest(n_sims=10, chunk_size=4)
        assert manifest.chunk_indices(2) == [8, 9]

    def test_out_of_range_chunk_rejected(self):
        with pytest.raises(CampaignError):
            _manifest().chunk_indices(3)
        with pytest.raises(CampaignError):
            _manifest().chunk_indices(-1)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert _manifest().fingerprint == _manifest().fingerprint

    def test_any_semantic_change_changes_it(self):
        base = _manifest().fingerprint
        assert _manifest(seed=8).fingerprint != base
        assert _manifest(n_sims=11).fingerprint != base
        assert _manifest(chunk_size=5).fingerprint != base
        assert _manifest(comm={"sensor_noise": 0.6}).fingerprint != base
        assert (
            _manifest(
                planner={"kind": "constant", "acceleration": 1.5}
            ).fingerprint
            != base
        )

    def test_key_order_does_not_change_it(self):
        a = _manifest(comm={"sensor_noise": 0.5, "dt_m": 0.1})
        b = _manifest(comm={"dt_m": 0.1, "sensor_noise": 0.5})
        assert a.fingerprint == b.fingerprint

    def test_dict_roundtrip_preserves_fingerprint(self):
        manifest = _manifest()
        assert (
            CampaignManifest.from_dict(manifest.to_dict()).fingerprint
            == manifest.fingerprint
        )

    def test_to_dict_is_a_deep_copy(self):
        manifest = _manifest()
        manifest.to_dict()["comm"]["sensor_noise"] = 99.0
        assert manifest.comm["sensor_noise"] == 0.5


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        manifest = _manifest()
        path = manifest.save(tmp_path / "manifest.json")
        loaded = CampaignManifest.load(path)
        assert loaded == manifest
        assert loaded.fingerprint == manifest.fingerprint

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            CampaignManifest.load(tmp_path / "nope.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError, match="corrupt"):
            CampaignManifest.load(path)

    def test_missing_required_field(self):
        record = _manifest().to_dict()
        del record["planner"]
        with pytest.raises(CampaignError, match="missing required field"):
            CampaignManifest.from_dict(record)


class TestCommSpec:
    def test_defaults_are_noiseless_and_fault_free(self):
        comm = build_comm({})
        assert (comm.dt_m, comm.dt_s) == (0.1, 0.1)
        assert comm.faults == NoFault()
        assert comm.sensor_bounds == NoiseBounds.noiseless()

    @pytest.mark.parametrize(
        "spec",
        [
            {"dt_m": "abc"},
            {"dt_s": None},
            {"dt_m": 0.0},
            {"sensor_noise": -1},
            {"sensor_noise": math.nan},
            {"sensor_noise": "loud"},
            {"sensor_nosie": 1.0},
            {"faults": None},
            {"faults": [{"kind": "fixed_delay", "delay": -0.1}]},
            {"disturbance": {"drop_probability": 0.5}, "faults": []},
        ],
    )
    def test_malformed_comm_spec_rejected(self, spec):
        with pytest.raises(CampaignError):
            build_comm(spec)

    def test_disturbance_key_names_its_faults(self):
        with pytest.raises(CampaignError, match='"kind": "fixed_delay"'):
            build_comm({"disturbance": {"delay": 0.25, "drop_probability": 0.3}})


def _with_sensor_fault(**fields):
    fault = {"window": [0, 5], "kind": "dropout", **fields}
    return {"fault_plan": {"sensor_faults": [fault]}}


def _with_planner_fault(**fields):
    fault = {"window": [0, 5], "kind": "nan", **fields}
    return {"fault_plan": {"planner_faults": [fault]}}


def _planner(spec):
    return build_planner(spec, build_scenario({"kind": "left_turn"}))


class TestConfigAndPlannerSpec:
    @pytest.mark.parametrize(
        ("build", "spec", "message"),
        [
            (build_config, {"max_time": "abc"}, "max_time"),
            (build_config, {"max_time": math.inf}, "max_time"),
            (build_config, {"max_tme": 5.0}, "expected some of"),
            (build_config, {"strict_safety": "no"}, "strict_safety"),
            (build_config, {"fault_plan": []}, "fault_plan"),
            (build_config, {"fault_plan": {"sensor": []}}, "expected some of"),
            (build_config, _with_sensor_fault(probability="x"), "probability"),
            (build_config, _with_sensor_fault(probabilty=0.5), "expected some"),
            (build_config, _with_sensor_fault(target="lead"), "target"),
            (build_config, _with_sensor_fault(window=[5, 2]), "window"),
            (build_config, _with_planner_fault(probability=None), "probability"),
            (build_config, _with_planner_fault(kind="late"), "kind"),
            (_planner, {"kind": "constant", "acceleration": "fast"}, "accel"),
            (_planner, {"kind": "constant", "acceleration": 1.0, "a": 2}, "some"),
            (_planner, {"kind": "full_brake", "acceleration": 1.0}, "some"),
            (_planner, {"kind": "compound", "embedded": "constant"}, "planner"),
            (
                _planner,
                {
                    "kind": "full_brake",
                    "faults": [{"window": [0, 5], "kind": "nan", "p": 1}],
                },
                "expected some of",
            ),
        ],
    )
    def test_malformed_spec_rejected(self, build, spec, message):
        with pytest.raises(CampaignError, match=message):
            build(spec)

    def test_well_formed_specs_build(self):
        config = build_config(
            {"max_time": 5, "strict_safety": True, **_with_sensor_fault()}
        )
        assert config.max_time == 5.0 and config.strict_safety
        assert len(config.fault_plan.sensor_faults) == 1
        assert _planner({"kind": "constant", "acceleration": 1.5}) is not None
