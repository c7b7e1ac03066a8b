"""The ``repro-campaign`` command line: lifecycle and exit codes."""

from __future__ import annotations

import json

import pytest

from repro.campaign.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from repro.campaign.journal import JournalWriter
from repro.campaign.manifest import CampaignManifest


@pytest.fixture()
def manifest_path(tmp_path):
    manifest = CampaignManifest(
        name="cli-test",
        scenario={"kind": "left_turn"},
        comm={"sensor_noise": 0.3},
        planner={"kind": "constant", "acceleration": 2.0},
        n_sims=2,
        seed=5,
        chunk_size=1,
        config={"max_time": 8.0},
    )
    return manifest.save(tmp_path / "manifest.json")


class TestLifecycle:
    def test_run_status_verify_resume(self, manifest_path, tmp_path, capsys):
        directory = tmp_path / "campaign"

        code = main(
            ["run", "--manifest", str(manifest_path), "--dir", str(directory)]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "completed" in out
        assert "results digest:" in out

        code = main(["status", "--dir", str(directory), "--json"])
        status = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert status["finished"] is True
        assert status["completed_chunks"] == 2
        # Operational fields from the journal: retries and wall time.
        assert status["total_retries"] == 0
        assert status["chunk_retries"] == {}
        assert status["elapsed"]["chunks_timed"] == 2
        assert status["elapsed"]["total_seconds"] >= 0.0

        code = main(["verify", "--dir", str(directory)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verify ok" in out

        # resuming a finished campaign succeeds without re-running
        code = main(["resume", "--dir", str(directory)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "0 run now" in out


class TestErrorPaths:
    def test_missing_manifest_is_campaign_error(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--manifest",
                str(tmp_path / "absent.json"),
                "--dir",
                str(tmp_path / "campaign"),
            ]
        )
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_resume_without_journal_is_error(self, manifest_path, tmp_path, capsys):
        directory = tmp_path / "campaign"
        directory.mkdir()
        CampaignManifest.load(manifest_path).save(directory / "manifest.json")
        code = main(["resume", "--dir", str(directory)])
        assert code == EXIT_ERROR
        assert "no journal" in capsys.readouterr().err

    def test_bad_planner_kind_is_error(self, tmp_path, capsys):
        manifest = CampaignManifest(
            name="bad",
            scenario={"kind": "left_turn"},
            comm={},
            planner={"kind": "teleporting"},
            n_sims=1,
            seed=0,
            chunk_size=1,
        )
        path = manifest.save(tmp_path / "manifest.json")
        code = main(
            ["run", "--manifest", str(path), "--dir", str(tmp_path / "c")]
        )
        assert code == EXIT_ERROR
        assert "unknown planner kind" in capsys.readouterr().err

    def test_status_on_header_only_journal(self, manifest_path, tmp_path, capsys):
        """A campaign killed right after the header record still reports."""
        directory = tmp_path / "campaign"
        directory.mkdir()
        manifest = CampaignManifest.load(manifest_path)
        manifest.save(directory / "manifest.json")
        with JournalWriter(directory / "journal.jsonl") as journal:
            journal.append(
                "campaign_started",
                fingerprint=manifest.fingerprint,
                name=manifest.name,
                n_sims=manifest.n_sims,
                n_chunks=manifest.n_chunks,
            )
        code = main(["status", "--dir", str(directory), "--json"])
        status = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert status["completed_chunks"] == 0
        assert status["journal_records"] == 1
        assert status["finished"] is False
        assert status["interrupted"] is False
        assert status["total_retries"] == 0
        assert status["elapsed"] is None  # no chunk carried a duration yet

    def test_verify_failure_exit_code(self, manifest_path, tmp_path, capsys):
        directory = tmp_path / "campaign"
        assert (
            main(
                [
                    "run",
                    "--manifest",
                    str(manifest_path),
                    "--dir",
                    str(directory),
                ]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        chunk = directory / "chunks" / "chunk-00000.json"
        snapshot = json.loads(chunk.read_text())
        for record in snapshot["results"].values():
            record["steps"] = record.get("steps", 0) + 1
        chunk.write_text(json.dumps(snapshot))
        code = main(["verify", "--dir", str(directory), "--json"])
        outcome = json.loads(capsys.readouterr().out)
        assert code == EXIT_VERIFY_FAILED
        assert outcome["ok"] is False
        assert outcome["problems"]


class TestFlagValidation:
    """Nonsensical knob values fail fast, before anything touches disk."""

    @pytest.mark.parametrize(
        ("command", "flags", "message"),
        [
            ("run", ["--workers", "0"], "--workers"),
            ("run", ["--chunk-attempts", "-1"], "--chunk-attempts"),
            ("run", ["--chunk-attempts", "0"], "--chunk-attempts"),
            ("run", ["--chunk-timeout", "0"], "--chunk-timeout"),
            ("run", ["--chunk-timeout", "-2.5"], "--chunk-timeout"),
            ("run", ["--lease-ttl", "0"], "--lease-ttl"),
            ("run", ["--lease-ttl", "nan"], "--lease-ttl"),
            ("run", ["--lease-ttl", "-3"], "--lease-ttl"),
            ("run", ["--heartbeat-interval", "0"], "--heartbeat-interval"),
            (
                "run",
                ["--heartbeat-interval", "nan"],
                "--heartbeat-interval",
            ),
            (
                "run",
                ["--lease-ttl", "1", "--heartbeat-interval", "2"],
                "--heartbeat-interval",
            ),
            ("run", ["--chunk-timeout", "nan"], "--chunk-timeout"),
            ("run", ["--workers", "-3"], "--workers"),
        ],
    )
    def test_bad_flag_is_error(
        self, manifest_path, tmp_path, capsys, command, flags, message
    ):
        directory = tmp_path / "campaign"
        code = main(
            [
                command,
                "--manifest",
                str(manifest_path),
                "--dir",
                str(directory),
                *flags,
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert message in err
        # validation fired before the campaign directory was created
        assert not directory.exists()
