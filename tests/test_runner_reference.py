"""The batch runner against an independent reference (the oracle rule).

Every execution path of :class:`~repro.sim.runner.BatchRunner` — the
in-process loop, the process pool, a pool whose worker crashes, a batch
run chunk by chunk, and a single episode — must reproduce
:func:`tests.batch_reference.reference_batch` record for record.  Records
are compared by the content digest of the full ``result_to_dict``
record (channel statistics and fault counters included), not just by
outcome and step count.

The workload is the campaign-storm stack: the shielded compound planner
around a faulty embedded planner, with the information filter, on a
loss + delay + jitter + duplication channel under sensor dropout — so
the filter replays deeply and irregularly.
"""

import pytest

from repro.campaign.builders import (
    build_comm,
    build_config,
    build_planner,
    build_scenario,
)
from repro.faults import WorkerChaosOnce
from repro.sim.engine import SimulationEngine
from repro.sim.runner import BatchRunner, EstimatorKind
from repro.sim.serialization import content_digest, result_to_dict
from tests.batch_reference import reference_batch

KIND = EstimatorKind.FILTERED
N_SIMS = 6
SEED = 17

STORM_COMM = {
    "dt_m": 0.1,
    "dt_s": 0.1,
    "sensor_noise": 1.0,
    "faults": [
        {"kind": "gilbert_elliott_loss", "p_enter_burst": 0.1, "p_exit_burst": 0.3},
        {"kind": "fixed_delay", "delay": 0.2},
        {"kind": "uniform_jitter", "low": 0.0, "high": 0.3},
        {"kind": "duplication", "probability": 0.2, "lag": 0.1},
    ],
}

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

STORM_CONFIG = {
    "max_time": 10.0,
    "fault_plan": {
        "sensor_faults": [
            {"window": [20, 120], "kind": "dropout", "probability": 0.5}
        ]
    },
}


def _digests(results):
    return [content_digest(result_to_dict(r)) for r in results]


@pytest.fixture(scope="module")
def storm():
    scenario = build_scenario({"kind": "left_turn"})
    engine = SimulationEngine(
        scenario, build_comm(STORM_COMM), build_config(STORM_CONFIG)
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

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_run_batch(self, storm, reference, n_workers):
        engine, planner = storm
        results = BatchRunner(engine, KIND, n_workers=n_workers).run_batch(
            planner, N_SIMS, seed=SEED
        )
        assert _digests(results) == reference

    def test_run_batch_through_a_worker_crash(self, storm, reference, tmp_path):
        engine, planner = storm
        chaos = WorkerChaosOnce(str(tmp_path / "crash"), mode="exit")
        results = BatchRunner(
            engine, KIND, n_workers=2, chaos=chaos
        ).run_batch(planner, N_SIMS, seed=SEED)
        assert not chaos.armed()  # the crash really happened
        assert _digests(results) == reference

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
