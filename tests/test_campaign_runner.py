"""The durable campaign runner: resume semantics and bit-identity.

The central guarantee under test: a campaign killed at **any** byte
offset of its journal can resume and produce an ``aggregate.json``
byte-identical to an uninterrupted run.  The kill is simulated by
truncating the journal of a completed campaign at every record boundary
and mid-record, pairing each truncation with the chunk snapshots a real
crash at that offset could have left behind.
"""

from __future__ import annotations

import shutil

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.journal import read_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    AGGREGATE_FILE,
    JOURNAL_FILE,
    MANIFEST_FILE,
    CampaignRunner,
    campaign_status,
    verify_campaign,
)
from repro.errors import CampaignError, FingerprintMismatchError
from repro.sim.results import ChunkResult, FailureRecord, Outcome, SimulationResult


def _manifest(**overrides):
    fields = dict(
        name="runner-test",
        scenario={"kind": "left_turn"},
        comm={
            "sensor_noise": 0.3,
            "faults": [{"kind": "independent_loss", "probability": 0.2}],
        },
        planner={"kind": "constant", "acceleration": 2.0},
        n_sims=6,
        seed=42,
        chunk_size=2,
        config={"max_time": 10.0},
    )
    fields.update(overrides)
    return CampaignManifest(**fields)


def _fake_result(index):
    return SimulationResult(
        outcome=Outcome.REACHED, reaching_time=5.0 + index, steps=10 + index
    )


def _fake_executor(indices):
    return ChunkResult(
        indices=list(indices),
        results={k: _fake_result(k) for k in indices},
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted real campaign, shared by the equivalence tests."""
    directory = tmp_path_factory.mktemp("reference") / "campaign"
    manifest = _manifest()
    report = CampaignRunner(manifest, directory, n_workers=1).run()
    assert report.status == "completed"
    return manifest, directory, report


class TestRunLifecycle:
    def test_run_produces_all_artifacts(self, reference):
        manifest, directory, report = reference
        assert (directory / MANIFEST_FILE).exists()
        assert (directory / JOURNAL_FILE).exists()
        assert (directory / AGGREGATE_FILE).exists()
        assert report.completed_chunks == manifest.n_chunks
        assert report.results_digest is not None
        assert report.aggregate is not None
        assert report.aggregate["n_runs"] == manifest.n_sims

    def test_journal_structure(self, reference):
        _, directory, _ = reference
        records, torn = read_journal(directory / JOURNAL_FILE)
        assert not torn
        types = [r["type"] for r in records]
        assert types[0] == "campaign_started"
        assert types[-1] == "campaign_finished"
        assert types.count("chunk_completed") == 3

    def test_status_and_verify_pass(self, reference):
        _, directory, _ = reference
        status = campaign_status(directory)
        assert status["finished"] and not status["torn_tail"]
        assert status["completed_chunks"] == 3
        outcome = verify_campaign(directory)
        assert outcome["ok"], outcome["problems"]

    def test_run_twice_refused(self, reference):
        manifest, directory, _ = reference
        with pytest.raises(CampaignError, match="already started"):
            CampaignRunner(manifest, directory).run()

    def test_resume_of_finished_campaign_is_noop(self, reference):
        manifest, directory, report = reference
        again = CampaignRunner(manifest, directory, n_workers=1).resume()
        assert again.status == "completed"
        assert again.chunks_run == 0
        assert again.results_digest == report.results_digest

    def test_run_refuses_directory_of_other_campaign(self, reference, tmp_path):
        manifest, directory, _ = reference
        other = _manifest(seed=43)
        target = tmp_path / "campaign"
        target.mkdir()
        shutil.copy(directory / MANIFEST_FILE, target / MANIFEST_FILE)
        with pytest.raises(FingerprintMismatchError):
            CampaignRunner(other, target).run()


class TestFingerprintRefusal:
    def test_resume_refuses_changed_manifest(self, reference, tmp_path):
        manifest, directory, _ = reference
        target = tmp_path / "campaign"
        shutil.copytree(directory, target)
        # the user "helpfully" edits the workload between kill and resume
        _manifest(seed=99).save(target / MANIFEST_FILE)
        edited = CampaignManifest.load(target / MANIFEST_FILE)
        with pytest.raises(FingerprintMismatchError, match="different"):
            CampaignRunner(edited, target).resume()

    def test_resume_refuses_foreign_journal(self, reference, tmp_path):
        manifest, directory, _ = reference
        target = tmp_path / "campaign"
        shutil.copytree(directory, target)
        # journal belongs to the original manifest; runner built for
        # another workload must refuse even if manifest.json matches it
        other = _manifest(seed=99)
        other.save(target / MANIFEST_FILE)
        with pytest.raises(FingerprintMismatchError):
            CampaignRunner(other, target).resume()


class TestKillResumeEquivalence:
    """Truncate the journal everywhere a crash can land; resume; compare."""

    def _crash_state(self, reference, tmp_path, journal_bytes):
        """Materialise the on-disk state a crash could leave behind."""
        manifest, directory, _ = reference
        target = tmp_path / "crashed"
        target.mkdir(parents=True)
        shutil.copy(directory / MANIFEST_FILE, target / MANIFEST_FILE)
        (target / JOURNAL_FILE).write_bytes(journal_bytes)
        # Chunks journaled within the surviving prefix must exist; the
        # *next* chunk may also exist (snapshot persisted, record lost).
        records, _ = read_journal(target / JOURNAL_FILE)
        journaled = [
            int(r["chunk"]) for r in records if r["type"] == "chunk_completed"
        ]
        keep = set(journaled)
        if journaled:
            keep.add(max(journaled) + 1)
        else:
            keep.add(0)
        (target / "chunks").mkdir()
        for chunk in keep:
            name = f"chunk-{chunk:05d}.json"
            source = directory / "chunks" / name
            if source.exists():
                shutil.copy(source, target / "chunks" / name)
        return manifest, target

    def _resume_and_compare(self, reference, manifest, target):
        _, directory, report = reference
        resumed = CampaignRunner(manifest, target, n_workers=1).resume()
        assert resumed.status == "completed"
        assert resumed.results_digest == report.results_digest
        # the full aggregate document is byte-identical, not just the
        # digest field
        assert (target / AGGREGATE_FILE).read_bytes() == (
            directory / AGGREGATE_FILE
        ).read_bytes()
        outcome = verify_campaign(target)
        assert outcome["ok"], outcome["problems"]

    def test_every_record_boundary(self, reference, tmp_path):
        _, directory, _ = reference
        lines = (directory / JOURNAL_FILE).read_bytes().splitlines(
            keepends=True
        )
        for cut in range(len(lines)):
            manifest, target = self._crash_state(
                reference, tmp_path / f"boundary-{cut}", b"".join(lines[:cut])
            )
            self._resume_and_compare(reference, manifest, target)

    def test_torn_mid_record(self, reference, tmp_path):
        _, directory, _ = reference
        lines = (directory / JOURNAL_FILE).read_bytes().splitlines(
            keepends=True
        )
        # cut the third record (a chunk_completed) in half: the journal
        # has a torn tail AND the chunk's snapshot exists on disk
        torn = b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2]
        manifest, target = self._crash_state(
            reference, tmp_path / "torn", torn
        )
        status = campaign_status(target)
        assert status["torn_tail"]
        self._resume_and_compare(reference, manifest, target)

    def test_double_kill_then_resume(self, reference, tmp_path):
        """Two successive crashes still converge to the same bytes."""
        _, directory, _ = reference
        lines = (directory / JOURNAL_FILE).read_bytes().splitlines(
            keepends=True
        )
        manifest, target = self._crash_state(
            reference, tmp_path / "first", b"".join(lines[:2])
        )
        # first resume is itself "killed": run it with an executor that
        # completes one chunk and then requests a drain
        runner = CampaignRunner(manifest, target, n_workers=1)
        real = runner._chunk_executor()

        calls = []

        def draining(indices):
            calls.append(indices)
            result = real(indices)
            runner.request_stop()
            return result

        runner._executor = draining
        partial = runner.resume()
        assert partial.status == "interrupted"
        assert len(calls) == 1
        self._resume_and_compare(reference, manifest, target)


class TestTransientRetry:
    def _flaky_executor(self, fail_times):
        attempts = {}

        def execute(indices):
            chunk_key = tuple(indices)
            attempts[chunk_key] = attempts.get(chunk_key, 0) + 1
            if attempts[chunk_key] <= fail_times:
                return ChunkResult(
                    indices=list(indices),
                    results={},
                    failures=[
                        FailureRecord(
                            index=k,
                            stage="worker",
                            error_type="BrokenProcessPool",
                            message="worker died",
                        )
                        for k in indices
                    ],
                )
            return _fake_executor(indices)

        return execute, attempts

    def test_transient_failure_retried_with_backoff(self, tmp_path):
        manifest = _manifest(n_sims=4, chunk_size=2)
        executor, attempts = self._flaky_executor(fail_times=2)
        sleeps = []
        runner = CampaignRunner(
            manifest,
            tmp_path / "campaign",
            backoff=BackoffPolicy(max_attempts=3, base_delay=0.01, jitter=0.25),
            sleep=sleeps.append,
            chunk_executor=executor,
        )
        report = runner.run()
        assert report.status == "completed"
        assert report.n_failed == 0
        # each of the 2 chunks needed 3 attempts -> 2 recorded delays each
        assert all(count == 3 for count in attempts.values())
        assert len(sleeps) == 4
        # the recorded delays match the deterministic policy exactly
        policy = BackoffPolicy(max_attempts=3, base_delay=0.01, jitter=0.25)
        expected = [
            policy.delay(manifest.fingerprint, 0, 1),
            policy.delay(manifest.fingerprint, 0, 2),
            policy.delay(manifest.fingerprint, 1, 1),
            policy.delay(manifest.fingerprint, 1, 2),
        ]
        assert sleeps == expected

    def test_exhausted_retries_record_failures(self, tmp_path):
        manifest = _manifest(n_sims=2, chunk_size=2)
        executor, _ = self._flaky_executor(fail_times=99)
        sleeps = []
        runner = CampaignRunner(
            manifest,
            tmp_path / "campaign",
            backoff=BackoffPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            sleep=sleeps.append,
            chunk_executor=executor,
        )
        report = runner.run()
        assert report.status == "completed"
        assert report.n_failed == 2
        assert report.aggregate is None  # nothing completed
        outcome = verify_campaign(tmp_path / "campaign")
        assert outcome["ok"], outcome["problems"]

    def test_deterministic_simulation_failures_not_retried(self, tmp_path):
        manifest = _manifest(n_sims=2, chunk_size=2)
        calls = []

        def execute(indices):
            calls.append(list(indices))
            return ChunkResult(
                indices=list(indices),
                results={indices[0]: _fake_result(indices[0])},
                failures=[
                    FailureRecord(
                        index=indices[1],
                        stage="simulation",
                        error_type="PlannerError",
                        message="deterministic",
                    )
                ],
            )

        runner = CampaignRunner(
            manifest, tmp_path / "campaign", chunk_executor=execute
        )
        report = runner.run()
        assert len(calls) == 1  # no retry for a final failure
        assert report.n_failed == 1
        assert report.aggregate["n_runs"] == 1


class TestGracefulDrain:
    def test_request_stop_drains_and_journals_interrupted(self, tmp_path):
        manifest = _manifest(n_sims=6, chunk_size=2)
        directory = tmp_path / "campaign"
        runner = CampaignRunner(
            manifest, directory, chunk_executor=_fake_executor
        )
        calls = []
        real = runner._executor

        def stopping(indices):
            calls.append(indices)
            result = real(indices)
            if len(calls) == 2:
                runner.request_stop()
            return result

        runner._executor = stopping
        report = runner.run()
        assert report.status == "interrupted"
        assert report.completed_chunks == 2  # in-flight chunk drained
        records, torn = read_journal(directory / JOURNAL_FILE)
        assert not torn
        assert records[-1]["type"] == "interrupted"
        # a later resume finishes the remaining chunk only
        resumed = CampaignRunner(
            manifest, directory, chunk_executor=_fake_executor
        ).resume()
        assert resumed.status == "completed"
        assert resumed.chunks_run == 1


class TestVerifyDetectsTampering:
    def test_modified_chunk_snapshot_fails_verify(self, reference, tmp_path):
        _, directory, _ = reference
        target = tmp_path / "campaign"
        shutil.copytree(directory, target)
        chunk = target / "chunks" / "chunk-00001.json"
        chunk.write_text(chunk.read_text().replace("reached", "collision"))
        outcome = verify_campaign(target)
        assert not outcome["ok"]
        assert any("digest" in p for p in outcome["problems"])

    def test_missing_chunk_snapshot_fails_verify(self, reference, tmp_path):
        _, directory, _ = reference
        target = tmp_path / "campaign"
        shutil.copytree(directory, target)
        (target / "chunks" / "chunk-00002.json").unlink()
        outcome = verify_campaign(target)
        assert not outcome["ok"]


class TestKnobValidation:
    """A bad knob raises at construction, before anything touches disk."""

    @pytest.mark.parametrize(
        "knobs",
        [
            {"n_workers": 0},
            {"timeout_per_sim": 0.0},
            {"timeout_per_sim": float("nan")},
            {"lease_ttl": 0.0},
            {"heartbeat_interval": 0.0},
            {"lease_ttl": 1.0, "heartbeat_interval": 2.0},
            {"lease_ttl": float("nan")},
            {"n_workers": 2, "chunk_executor": _fake_executor},
            {"timeout_per_sim": float("inf")},
            {"timeout_per_sim": float("-inf")},
        ],
    )
    def test_bad_knob_never_starts_a_campaign(self, tmp_path, knobs):
        directory = tmp_path / "campaign"
        with pytest.raises(CampaignError):
            CampaignRunner(_manifest(), directory, **knobs)
        assert not directory.exists()

    @pytest.mark.parametrize(
        "comm",
        [
            {"dt_m": "abc"},
            {"dt_s": None},
            {"dt_m": 0.07},
            {"sensor_noise": -1},
            {"sensor_nosie": 1.0},
            {"disturbance": {"drop_probability": 1.0}, "faults": []},
        ],
    )
    def test_unbuildable_manifest_never_starts_a_campaign(self, tmp_path, comm):
        directory = tmp_path / "campaign"
        with pytest.raises(CampaignError):
            CampaignRunner(_manifest(comm=comm), directory).run()
        assert not directory.exists()
