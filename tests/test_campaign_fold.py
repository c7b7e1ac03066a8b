"""Every reader of a campaign journal agrees with its one fold.

``CampaignProgress.absorb`` is the only interpreter of journal records.
On hand-written journals — an old fleet's equal-digest duplicate, a
conflicting duplicate, a foreign fingerprint, a torn tail, two
coordinator epochs, an ``interrupted`` tail — replay (raising or not),
``campaign_status`` (never raising), ``verify_campaign`` (problems
listed) and the metrics summary report the same completed chunks,
``finished`` flag, retries and elapsed figures.  A campaign killed at
any record boundary and resumed writes the ``metrics.json`` that the
fold of its re-read journal gives.
"""

from __future__ import annotations

import re
import shutil

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.journal import JournalWriter, read_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    JOURNAL_FILE,
    MANIFEST_FILE,
    METRICS_FILE,
    CampaignProgress,
    CampaignRunner,
    campaign_status,
    replay_progress,
    verify_campaign,
)
from repro.campaign.store import load_json
from repro.errors import FingerprintMismatchError, JournalCorruptionError
from repro.sim.results import ChunkResult, FailureRecord, Outcome, SimulationResult
from repro.sim.serialization import SCHEMA_VERSION

MANIFEST = CampaignManifest(
    name="fold-test",
    scenario={"kind": "left_turn"},
    comm={"sensor_noise": 0.3},
    planner={"kind": "constant", "acceleration": 2.0},
    n_sims=3,
    seed=3,
    chunk_size=1,
    config={"max_time": 8.0},
)
FP = MANIFEST.fingerprint
A, B = "a" * 64, "b" * 64


def _completed(chunk, digest, elapsed, **extra):
    return (
        "chunk_completed",
        dict(chunk=chunk, n_results=1, n_failures=0, digest=digest,
             elapsed=elapsed, **extra),
    )


def _fleet_start(epoch):
    return [
        ("coordinator_started",
         dict(epoch=epoch, n_workers=2, pending_chunks=3)),
        ("worker_spawned", dict(worker="w0", pid=100 + epoch)),
        ("worker_spawned", dict(worker="w1", pid=200 + epoch)),
    ]


#: name -> (records after campaign_started, torn tail, expectations).
#: Expectations: completed chunks, finished, chunk_retries, chunks
#: timed, duplicates, and the problem replay raises (type, match).
JOURNALS = {
    "old-fleet-duplicate": (
        _fleet_start(1) + [
            ("lease_claimed", dict(worker="w0", chunk=0, attempt=1,
                                   origin="range", speculative=False)),
            ("lease_claimed", dict(worker="w1", chunk=1, attempt=1,
                                   origin="steal", speculative=False)),
            ("chunk_retry", dict(chunk=1, attempt=2, delay=0.0, worker="w1")),
            _completed(1, B, 0.2, worker="w1", duplicate=False),
            ("lease_claimed", dict(worker="w1", chunk=0, attempt=2,
                                   origin="speculation", speculative=True)),
            _completed(0, A, 0.1, worker="w1", duplicate=False),
            _completed(0, A, 0.3, worker="w0", duplicate=True),
        ],
        False,
        dict(completed={0, 1}, finished=False, retries={"1": 1}, timed=3,
             duplicates=1, problem=None),
    ),
    "conflicting-duplicate": (
        [_completed(0, A, 0.1), _completed(0, B, 0.2)],
        False,
        dict(completed={0}, finished=False, retries={}, timed=2,
             duplicates=1, problem=(JournalCorruptionError, "byte-identical")),
    ),
    "foreign-fingerprint": (
        [("chunk_completed", dict(chunk=0, digest=A, elapsed=0.1,
                                  fingerprint="f" * 64))],
        False,
        dict(completed={0}, finished=False, retries={}, timed=1,
             duplicates=0,
             problem=(FingerprintMismatchError, "different workload")),
    ),
    "torn-tail": (
        [_completed(0, A, 0.1), _completed(1, B, 0.2)],
        True,
        dict(completed={0, 1}, finished=False, retries={}, timed=2,
             duplicates=0, problem=None),
    ),
    "two-epochs": (
        _fleet_start(1) + [
            ("lease_claimed", dict(worker="w0", chunk=0, attempt=1)),
            _completed(0, A, 0.1, worker="w0"),
            ("lease_claimed", dict(worker="w1", chunk=1, attempt=1)),
        ] + _fleet_start(2) + [
            ("lease_claimed", dict(worker="w0", chunk=1, attempt=2)),
            ("chunk_retry", dict(chunk=1, attempt=2, delay=0.0, worker="w0")),
            _completed(1, B, 0.4, worker="w0"),
            ("lease_claimed", dict(worker="w1", chunk=2, attempt=1)),
            _completed(2, "c" * 64, 0.5, worker="w1"),
            ("worker_exited", dict(worker="w0", returncode=0)),
            ("worker_exited", dict(worker="w1", returncode=0)),
            ("campaign_finished", dict(results_digest="r" * 64, n_failed=0)),
        ],
        False,
        dict(completed={0, 1, 2}, finished=True, retries={"1": 1}, timed=3,
             duplicates=0, problem=None),
    ),
    "interrupted-tail": (
        [
            ("chunk_retry", dict(chunk=0, attempt=2, delay=0.0)),
            ("chunk_retry", dict(chunk=0, attempt=3, delay=0.0)),
            _completed(0, A, 0.5),
            ("interrupted", dict(completed_chunks=1)),
        ],
        False,
        dict(completed={0}, finished=False, retries={"0": 2}, timed=1,
             duplicates=0, problem=None),
    ),
}


def _write_campaign(directory, records, torn):
    directory.mkdir()
    MANIFEST.save(directory / MANIFEST_FILE)
    with JournalWriter(directory / JOURNAL_FILE) as journal:
        journal.append(
            "campaign_started", fingerprint=FP, name=MANIFEST.name,
            n_sims=MANIFEST.n_sims, n_chunks=MANIFEST.n_chunks,
        )
        for record_type, payload in records:
            journal.append(record_type, **dict({"fingerprint": FP}, **payload))
    if torn:
        with open(directory / JOURNAL_FILE, "ab") as handle:
            handle.write(b'{"schema_version": "1.0", "seq": 9')


@pytest.mark.parametrize("name", sorted(JOURNALS))
def test_readers_agree_with_the_fold(tmp_path, name):
    records_spec, torn, expected = JOURNALS[name]
    directory = tmp_path / name
    _write_campaign(directory, records_spec, torn)
    records, torn_read = read_journal(directory / JOURNAL_FILE)
    assert torn_read is torn
    fold = CampaignProgress.fold(records, FP)
    summary = fold.operational_summary()
    assert set(fold.completed) == expected["completed"]
    assert fold.finished is expected["finished"]
    assert fold.duplicates == expected["duplicates"]
    assert summary["chunk_retries"] == expected["retries"]
    assert summary["elapsed"]["chunks_timed"] == expected["timed"]

    if expected["problem"] is None:
        assert fold.problems == []
        assert replay_progress(records, FP) == fold
    else:
        kind, match = expected["problem"]
        assert [type(p) for p in fold.problems] == [kind]
        with pytest.raises(kind, match=re.escape(str(fold.problems[0]))):
            replay_progress(records, FP)
        assert re.search(match, str(fold.problems[0]))

    status = campaign_status(directory)
    assert status["completed_chunks"] == len(fold.completed)
    assert status["finished"] is fold.finished
    assert status["duplicate_completions"] == fold.duplicates
    assert status["torn_tail"] is torn
    assert status["interrupted"] is (name == "interrupted-tail")
    assert {key: status[key] for key in summary} == summary

    outcome = verify_campaign(directory)
    assert outcome["completed_chunks"] == len(fold.completed)
    assert outcome["finished"] is fold.finished
    for problem in fold.problems:
        assert str(problem) in outcome["problems"]
    # No snapshot exists behind these hand-written completions.
    assert not outcome["ok"]


def test_fold_counts_forensics_across_epochs(tmp_path):
    directory = tmp_path / "epochs"
    _write_campaign(directory, *JOURNALS["two-epochs"][:2])
    status = campaign_status(directory)
    assert status["coordinator_epochs"] == 2
    assert status["workers"]["w0"] == {
        "pid": 102,
        "alive": False,
        "leases": 2,
        "heartbeats": 0,
        "completions": 2,
        "expirations": 0,
        "errors": 0,
        "last_heartbeat_seq": None,
    }
    assert status["workers"]["w1"]["leases"] == 2
    assert status["workers"]["w1"]["completions"] == 1


class _FlakyExecutor:
    """Fails the first call transiently, then returns fixed results."""

    def __init__(self):
        self.calls = 0

    def __call__(self, indices):
        self.calls += 1
        indices = list(indices)
        if self.calls == 1:
            failures = [
                FailureRecord(index=k, stage="worker",
                              error_type="WorkerDied", message="injected")
                for k in indices
            ]
            return ChunkResult(indices=indices, results={}, failures=failures)
        results = {
            k: SimulationResult(outcome=Outcome.REACHED,
                                reaching_time=5.0 + k, steps=10 + k)
            for k in indices
        }
        return ChunkResult(indices=indices, results=results)


def _runner(directory):
    return CampaignRunner(
        MANIFEST,
        directory,
        chunk_executor=_FlakyExecutor(),
        backoff=BackoffPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        sleep=lambda _s: None,
    )


def test_resumed_metrics_equal_the_fold_of_the_journal(tmp_path):
    reference = tmp_path / "reference"
    assert _runner(reference).run().status == "completed"
    lines = (reference / JOURNAL_FILE).read_bytes().splitlines(keepends=True)
    for cut in range(1, len(lines)):
        target = tmp_path / f"boundary-{cut}"
        shutil.copytree(reference, target)
        (target / METRICS_FILE).unlink()
        (target / JOURNAL_FILE).write_bytes(b"".join(lines[:cut]))
        assert _runner(target).resume().status == "completed"
        records, _ = read_journal(target / JOURNAL_FILE)
        assert load_json(target / METRICS_FILE) == {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": FP,
            "name": MANIFEST.name,
            **CampaignProgress.fold(records, FP).operational_summary(),
        }
