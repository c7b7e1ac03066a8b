"""Benchmark: the shard fleet against the in-process campaign runner.

Runs the same manifest through :class:`~repro.campaign.CampaignRunner`
in-process (``n_workers=1``) and on a three-worker fleet
(``n_workers=3``), asserting the merged
aggregate bytes are **bit-identical** — distribution reorganises
execution, never results — and printing the wall time of each leg so
``BENCH_shard.json`` (via ``make bench-record``) tracks shard overhead
across PRs.

The workloads here are small: worker processes cost real spawn time,
so this certifies correctness and records the coordination overhead
envelope rather than chasing parallel speedup on toy chunks.  Scale
with ``REPRO_BENCH_SIMS`` to measure genuine throughput.
"""

import time

import pytest

from repro.campaign import (
    CampaignManifest,
    CampaignRunner,
    campaign_status,
    verify_campaign,
)

from conftest import BENCH_SIMS

#: Episodes per leg; the cap certifies bit-identity, not statistics.
SHARD_SIMS = max(8, BENCH_SIMS // 10)

AGGREGATE_FILE = "aggregate.json"


def _manifest(seed=37):
    return CampaignManifest(
        name="shard-bench",
        scenario={"kind": "left_turn"},
        comm={
            "sensor_noise": 0.3,
            "faults": [{"kind": "independent_loss", "probability": 0.2}],
        },
        planner={"kind": "constant", "acceleration": 2.0},
        config={"max_time": 10.0},
        n_sims=SHARD_SIMS,
        seed=seed,
        chunk_size=2,
    )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.mark.benchmark(group="shard")
def test_sharded_bit_identical_to_sequential(benchmark, run_once, tmp_path):
    manifest = _manifest()

    def _both():
        _, sequential_s = _timed(
            lambda: CampaignRunner(manifest, tmp_path / "sequential").run()
        )
        report, sharded_s = _timed(
            lambda: CampaignRunner(
                manifest,
                tmp_path / "sharded",
                n_workers=3,
                heartbeat_interval=0.2,
            ).run()
        )
        return report, sequential_s, sharded_s

    report, sequential_s, sharded_s = run_once(benchmark, _both)
    print()
    print(
        f"{'leg':<14}{'sims':>6}{'chunks':>8}{'seconds':>10}\n"
        f"{'-' * 38}\n"
        f"{'sequential':<14}{SHARD_SIMS:>6}{manifest.n_chunks:>8}"
        f"{sequential_s:>10.2f}\n"
        f"{'sharded x3':<14}{SHARD_SIMS:>6}{manifest.n_chunks:>8}"
        f"{sharded_s:>10.2f}"
    )

    assert report.status == "completed"
    sequential_bytes = (tmp_path / "sequential" / AGGREGATE_FILE).read_bytes()
    sharded_bytes = (tmp_path / "sharded" / AGGREGATE_FILE).read_bytes()
    assert sharded_bytes == sequential_bytes

    for directory in ("sequential", "sharded"):
        outcome = verify_campaign(tmp_path / directory)
        assert outcome["ok"], outcome["problems"]

    summary = campaign_status(tmp_path / "sharded")
    assert summary["finished"] is True
    assert summary["completed_chunks"] == manifest.n_chunks
    assert set(summary["workers"]) == {"w0", "w1", "w2"}
