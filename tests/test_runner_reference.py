"""The batch runner against an independent reference (the oracle rule).

Every execution path of :class:`~repro.sim.runner.BatchRunner` — the
in-process loop, the watchdog worker, a watchdog whose worker crashes,
returns garbage or hangs (recovered by the
:func:`~repro.campaign.runner.run_chunk_attempts` retry rule), a batch
run chunk by chunk, and a single episode — must reproduce
:func:`tests.batch_reference.reference_batch` record for record.
Records are compared by the content digest of the full
``result_to_dict`` record (channel statistics and fault counters
included), not just by outcome and step count.

The workload is the campaign-storm stack: the shielded compound planner
around a faulty embedded planner, with the information filter, on a
loss + delay + jitter + duplication channel under sensor dropout — so
the filter replays deeply and irregularly.
"""

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.builders import (
    build_comm,
    build_config,
    build_planner,
    build_scenario,
)
from repro.campaign.runner import run_chunk_attempts
from repro.faults import WorkerChaosOnce
from repro.sim.engine import SimulationEngine
from repro.sim.runner import BatchRunner, EstimatorKind, run_chunk
from repro.sim.serialization import content_digest, result_to_dict
from repro.utils.rng import RngStream
from tests import storm as storm_specs
from tests.batch_reference import reference_batch

KIND = EstimatorKind.FILTERED
N_SIMS = 6
SEED = 17

#: The campaign-storm planner (``tests/storm.py``) without its latency
#: fault, on the same channel and fault plan.
STORM_PLANNER = {
    "kind": "compound",
    "embedded": {
        "kind": "constant",
        "acceleration": 2.0,
        "faults": [
            {"window": [20, 35], "kind": "exception"},
            {"window": [60, 75], "kind": "nan"},
        ],
    },
}


def _digests(results):
    return [content_digest(result_to_dict(r)) for r in results]


def _retried(storm, chaos):
    """The batch under ``chaos``, recovered by the one retry rule."""
    engine, planner = storm
    runner = BatchRunner(engine, KIND, timeout_per_sim=1.0, chaos=chaos)
    chunk = run_chunk_attempts(
        lambda indices: runner.run_indices_detailed(
            planner, indices, N_SIMS, SEED
        ),
        list(range(N_SIMS)),
        "0" * 64,
        0,
        BackoffPolicy(base_delay=0.0, jitter=0.0),
        lambda delay: None,
        lambda attempt, delay: None,
    )
    assert chunk.n_failed == 0
    return [chunk.results[k] for k in range(N_SIMS)]


@pytest.fixture(scope="module")
def storm():
    scenario = build_scenario({"kind": "left_turn"})
    engine = SimulationEngine(
        scenario, build_comm(storm_specs.COMM), build_config(storm_specs.CONFIG)
    )
    return engine, build_planner(STORM_PLANNER, scenario)


@pytest.fixture(scope="module")
def reference(storm):
    engine, planner = storm
    return _digests(reference_batch(engine, planner, KIND, N_SIMS, SEED))


class TestAgainstReference:
    def test_reference_exercises_the_storm(self, storm):
        engine, planner = storm
        results = reference_batch(engine, planner, KIND, N_SIMS, SEED)
        stats = [s for r in results for s in r.channel_stats.values()]
        assert sum(s.dropped for s in stats) > 0
        assert sum(s.duplicated for s in stats) > 0
        assert sum(s.out_of_order for s in stats) > 0
        assert sum(r.sensor_faults_injected for r in results) > 0

    @pytest.mark.parametrize(
        "timeout_per_sim", [None, 60.0], ids=["in-process", "watchdog"]
    )
    def test_run_batch(self, storm, reference, timeout_per_sim):
        engine, planner = storm
        results = BatchRunner(
            engine, KIND, timeout_per_sim=timeout_per_sim
        ).run_batch(planner, N_SIMS, seed=SEED)
        assert _digests(results) == reference

    def test_run_batch_through_a_worker_crash(self, storm, reference, tmp_path):
        chaos = WorkerChaosOnce(str(tmp_path / "crash"), mode="exit")
        assert _digests(_retried(storm, chaos)) == reference
        assert not chaos.armed()  # the crash really happened

    @pytest.mark.parametrize("mode", ["garbage", "hang"])
    def test_run_batch_through_chaos(self, storm, reference, tmp_path, mode):
        chaos = WorkerChaosOnce(str(tmp_path / mode), mode=mode)
        assert _digests(_retried(storm, chaos)) == reference
        assert not chaos.armed()

    def test_union_of_three_chunks(self, storm, reference):
        engine, planner = storm
        runner = BatchRunner(engine, KIND)
        merged = {}
        for chunk in ([3, 0], [5, 1, 4], [2]):
            result = runner.run_indices_detailed(planner, chunk, N_SIMS, SEED)
            assert result.n_failed == 0
            merged.update(result.results)
        assert _digests([merged[k] for k in range(N_SIMS)]) == reference

    def test_run_one(self, storm, reference):
        engine, planner = storm
        result = BatchRunner(engine, KIND).run_one(planner, SEED)
        assert _digests([result]) == reference[:1]


class TestChunkStreams:
    """A chunk builds the streams of its own indices, not the whole batch's."""

    def test_no_batch_spawn(self, storm, reference, monkeypatch):
        spawned = []
        spawn = RngStream.spawn

        def counting_spawn(self, n):
            spawned.append(n)
            return spawn(self, n)

        monkeypatch.setattr(RngStream, "spawn", counting_spawn)
        engine, planner = storm
        chunk = run_chunk(engine, planner, KIND, SEED, [4, 1], N_SIMS)
        assert spawned == []
        assert chunk.indices == [1, 4]
        assert chunk.failures == []
        assert _digests([chunk.results[4], chunk.results[1]]) == [
            reference[4], reference[1]
        ]

    @pytest.mark.parametrize("index", [-1, N_SIMS])
    def test_index_outside_the_batch(self, storm, index):
        engine, planner = storm
        chunk = run_chunk(engine, planner, KIND, SEED, [index], N_SIMS)
        assert chunk.results == {}
        [failure] = chunk.failures
        assert (failure.index, failure.stage, failure.error_type) == (
            index, "simulation", "IndexError"
        )
