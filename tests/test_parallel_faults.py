"""Failure-path tests for the crash-tolerant batch runner.

Each test injects one of the infrastructure failures the runner must
contain — an in-episode exception, a dying worker, a garbage payload, a
hung worker — and asserts the contract: surviving episodes are
bit-identical to a plain ``engine.run`` loop's, failed episodes surface as
structured records, and bounded retries with the same seeds recover
transient failures exactly.
"""

import time

import pytest

from repro.comm.disturbance import messages_delayed
from repro.errors import PlannerError, SimulationError
from repro.faults import WorkerChaosOnce
from repro.planners.constant import ConstantPlanner
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.runner import BatchRunner, EstimatorKind
from tests.batch_reference import reference_batch_detailed


def _comm():
    return CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        disturbance=messages_delayed(0.25, 0.3),
        sensor_bounds=NoiseBounds.uniform_all(1.0),
    )


def _config():
    return SimulationConfig(max_time=8.0, record_trajectories=False)


def _fingerprint(result):
    return (
        result.outcome,
        result.reaching_time,
        result.collision_time,
        result.steps,
        result.emergency_steps,
    )


class FlakyPlanner:
    """Raises for a deterministic, seed-derived subset of episodes.

    The failure decision hashes the first step's fused estimate — a pure
    function of the episode seed — so sequential and parallel execution
    fail exactly the same episodes regardless of worker scheduling or
    retry order.
    """

    def __init__(self, acceleration=2.0, threshold=0.5):
        self._acceleration = acceleration
        self._threshold = threshold
        self.reset()

    def reset(self):
        self._decided = False
        self._fail = False

    def plan(self, context):
        if not self._decided:
            self._decided = True
            probe = context.estimates[1].nominal.position
            self._fail = (probe * 7.919) % 1.0 < self._threshold
        if self._fail:
            raise PlannerError("flaky planner: injected episode failure")
        return self._acceleration


class SleepyPlanner:
    """Sleeps far past any per-simulation budget on every step."""

    def plan(self, context):
        time.sleep(60.0)
        return 0.0


def _engine(scenario):
    return SimulationEngine(scenario, _comm(), _config())


def _runner(scenario, **kwargs):
    kwargs.setdefault("estimator_kind", EstimatorKind.RAW)
    kwargs.setdefault("n_workers", 2)
    return BatchRunner(_engine(scenario), **kwargs)


def _reference(scenario, planner, n_sims, seed):
    return reference_batch_detailed(
        _engine(scenario), planner, EstimatorKind.RAW, n_sims, seed
    )


class TestSimulationErrors:
    def test_matches_sequential_failures_and_survivors(self, scenario):
        planner = FlakyPlanner()
        reference = _reference(scenario, planner, 8, 11)
        batch = _runner(scenario, n_workers=3).run_batch_detailed(
            planner, 8, seed=11
        )
        # The probe threshold must actually split the batch.
        assert 0 < reference.n_failed < reference.n_total
        assert batch.failed_indices == reference.failed_indices
        assert all(f.stage == "simulation" for f in batch.failures)
        assert all(f.error_type == "PlannerError" for f in batch.failures)
        for mine, ref in zip(batch.results, reference.results):
            if ref is None:
                assert mine is None
            else:
                assert _fingerprint(mine) == _fingerprint(ref)

    def test_in_episode_errors_are_not_retried(self, scenario):
        batch = _runner(scenario, max_retries=3).run_batch_detailed(
            FlakyPlanner(), 6, seed=11
        )
        assert batch.n_failed > 0
        assert all(f.attempts == 1 for f in batch.failures)

    def test_run_batch_raises_with_failure_summary(self, scenario):
        with pytest.raises(SimulationError, match="simulations failed"):
            _runner(scenario).run_batch(FlakyPlanner(), 6, seed=11)

    def test_single_worker_path_records_failures(self, scenario):
        batch = _runner(scenario, n_workers=1).run_batch_detailed(
            FlakyPlanner(), 6, seed=11
        )
        reference = _reference(scenario, FlakyPlanner(), 6, 11)
        assert batch.failed_indices == reference.failed_indices


class TestWorkerCrash:
    def test_crash_is_retried_to_bit_identical_results(self, scenario, tmp_path):
        chaos = WorkerChaosOnce(str(tmp_path / "crash"), mode="exit")
        planner = ConstantPlanner(2.0)
        clean = _runner(scenario).run_batch(planner, 6, seed=3)
        crashed = _runner(scenario, chaos=chaos).run_batch(planner, 6, seed=3)
        assert not chaos.armed()  # the crash really happened
        assert [_fingerprint(r) for r in crashed] == [
            _fingerprint(r) for r in clean
        ]

    def test_crash_with_retries_exhausted_surfaces_worker_records(
        self, scenario, tmp_path
    ):
        chaos = WorkerChaosOnce(str(tmp_path / "crash"), mode="exit")
        batch = _runner(scenario, chaos=chaos, max_retries=0).run_batch_detailed(
            ConstantPlanner(2.0), 6, seed=3
        )
        assert not chaos.armed()
        # A worker death marks the whole pool broken, so with zero
        # retries every chunk of the round fails (retries are how
        # siblings normally recover — see the test above).
        assert batch.n_failed > 0
        assert all(f.stage == "worker" for f in batch.failures)
        assert all(f.attempts == 1 for f in batch.failures)


class TestGarbagePayload:
    def test_garbage_is_retried_to_bit_identical_results(
        self, scenario, tmp_path
    ):
        chaos = WorkerChaosOnce(str(tmp_path / "garbage"), mode="garbage")
        planner = ConstantPlanner(2.0)
        clean = _runner(scenario).run_batch(planner, 6, seed=3)
        garbled = _runner(scenario, chaos=chaos).run_batch(planner, 6, seed=3)
        assert not chaos.armed()
        assert [_fingerprint(r) for r in garbled] == [
            _fingerprint(r) for r in clean
        ]

    def test_garbage_with_retries_exhausted_is_marked_malformed(
        self, scenario, tmp_path
    ):
        chaos = WorkerChaosOnce(str(tmp_path / "garbage"), mode="garbage")
        batch = _runner(scenario, chaos=chaos, max_retries=0).run_batch_detailed(
            ConstantPlanner(2.0), 6, seed=3
        )
        assert not chaos.armed()
        assert batch.n_failed > 0
        assert all(f.stage == "worker" for f in batch.failures)
        assert any("MalformedPayload" == f.error_type for f in batch.failures)


class TestTimeout:
    def test_hung_simulations_surface_timeout_records(self, scenario):
        batch = _runner(
            scenario, timeout_per_sim=0.75, max_retries=0
        ).run_batch_detailed(SleepyPlanner(), 2, seed=0)
        assert batch.n_failed == 2
        assert all(f.stage == "timeout" for f in batch.failures)
        assert batch.completed == []

    def test_timeout_budget_scales_with_chunk_size(self, scenario):
        """A healthy batch under a generous per-sim budget completes."""
        batch = _runner(
            scenario, timeout_per_sim=120.0, max_retries=0
        ).run_batch_detailed(ConstantPlanner(2.0), 4, seed=1)
        assert batch.n_failed == 0
        assert len(batch.completed) == 4


class TestProgress:
    def test_watchdog_path_reports_every_index(self, scenario):
        """One worker under a watchdog runs on the pool, yet every
        finished index still reaches ``progress`` — the shard worker's
        heartbeat hook under ``--chunk-timeout``."""
        seen = []
        chunk = _runner(
            scenario, n_workers=1, timeout_per_sim=60.0
        ).run_indices_detailed(
            ConstantPlanner(2.0), [0, 1, 2], 3, progress=seen.append
        )
        assert chunk.n_failed == 0
        assert seen == [0, 1, 2]


class TestValidation:
    def test_negative_max_retries_rejected(self, scenario):
        with pytest.raises(SimulationError):
            _runner(scenario, max_retries=-1)

    def test_nonpositive_timeout_rejected(self, scenario):
        with pytest.raises(SimulationError):
            _runner(scenario, timeout_per_sim=0.0)
