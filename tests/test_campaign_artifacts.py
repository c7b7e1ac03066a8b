"""Campaign artifact bytes pinned across revisions.

The golden corpus (``tests/test_golden.py``) pins episodes; this module
pins what :func:`~repro.campaign.runner.finalise_campaign` writes from
them.  A small comm-storm campaign (the specs of ``tests/storm.py``, two
chunks, the workload's 10 s horizon, no neural network and so no BLAS dependence)
runs in-process, on a two-worker fleet, and interrupted in-process then
resumed on the fleet; every way must end at the checked-in SHA-256 of
``aggregate.json`` and at the checked-in ``results_digest``.  A change
that moves either on purpose updates both constants and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.campaign.builders import workload_executor
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import AGGREGATE_FILE, CampaignRunner
from tests import storm

AGGREGATE_SHA256 = (
    "e7795cf9b4877dffb49d82bfc1386ed5fcb5f6dadfb7979935adcf9cc00aff1c"
)
RESULTS_DIGEST = (
    "56c9df23603fff2506eacdbb12de7039929b2517bd3dc5adb74a256c5b4fee5b"
)


def _manifest():
    return CampaignManifest(
        name="artifact-pin",
        scenario={"kind": "left_turn"},
        comm=storm.COMM,
        planner=storm.PLANNER,
        config=storm.CONFIG,
        n_sims=4,
        seed=11,
        chunk_size=2,
    )


def _assert_pinned(directory, report):
    assert report.status == "completed"
    assert report.results_digest == RESULTS_DIGEST
    data = (directory / AGGREGATE_FILE).read_bytes()
    assert hashlib.sha256(data).hexdigest() == AGGREGATE_SHA256


@pytest.mark.parametrize("n_workers", [1, 2])
def test_uninterrupted_campaign_matches_pin(tmp_path, n_workers):
    directory = tmp_path / "campaign"
    report = CampaignRunner(
        _manifest(), directory, n_workers=n_workers, heartbeat_interval=0.2
    ).run()
    _assert_pinned(directory, report)


def test_interrupted_then_resumed_campaign_matches_pin(tmp_path):
    manifest = _manifest()
    directory = tmp_path / "campaign"
    execute = workload_executor(manifest)
    runner = None

    def stop_after_one_chunk(indices):
        result = execute(indices)
        runner.request_stop()
        return result

    runner = CampaignRunner(
        manifest, directory, chunk_executor=stop_after_one_chunk
    )
    interrupted = runner.run()
    assert interrupted.status == "interrupted"
    assert interrupted.completed_chunks == 1
    report = CampaignRunner(
        manifest, directory, n_workers=2, heartbeat_interval=0.2
    ).resume()
    assert report.chunks_run == 1
    _assert_pinned(directory, report)
