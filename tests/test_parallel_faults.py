"""Failure-path tests for the batch runner's watchdog and the retry rule.

Each test injects one of the infrastructure failures the runner must
contain — an in-episode exception, a dying worker, a garbage payload, a
hung worker — and asserts the contract: :class:`BatchRunner` attempts
every index once and gives only the failed index a structured record,
surviving episodes are bit-identical to a plain ``engine.run`` loop's,
and :func:`run_chunk_attempts` — the one retry rule — re-runs only the
transient indices, with the same seeds, recovering them exactly.
"""

import json
import multiprocessing
import time

import pytest

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    CampaignRunner,
    campaign_status,
    chunk_path,
    run_chunk_attempts,
)
from repro.comm.faults import messages_delayed
from repro.errors import PlannerError, SimulationError
from repro.faults import WorkerChaosOnce
from repro.planners.constant import ConstantPlanner
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import (
    ChunkResult,
    FailureRecord,
    Outcome,
    SimulationResult,
)
from repro.sim.runner import BatchRunner, EstimatorKind
from tests.batch_reference import reference_batch_detailed


def _comm():
    return CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        faults=messages_delayed(0.25, 0.3),
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
    function of the episode seed — so in-process and watchdog execution
    fail exactly the same episodes regardless of process or retry order.
    """

    def __init__(self, acceleration=2.0, threshold=0.5):
        self._acceleration = acceleration
        self._threshold = threshold
        self.reset()

    def reset(self):
        self._decided = False
        self._fail = False

    def plan_floats(self, time, position, velocity, acceleration, estimates, tracer=None):
        if not self._decided:
            self._decided = True
            probe = estimates[1].nominal.position
            self._fail = (probe * 7.919) % 1.0 < self._threshold
        if self._fail:
            raise PlannerError("flaky planner: injected episode failure")
        return self._acceleration


class SleepyPlanner:
    """Sleeps far past any per-simulation budget on every step."""

    def plan_floats(self, *ego):
        time.sleep(60.0)
        return 0.0


def _engine(scenario):
    return SimulationEngine(scenario, _comm(), _config())


def _runner(scenario, **kwargs):
    kwargs.setdefault("estimator_kind", EstimatorKind.RAW)
    return BatchRunner(_engine(scenario), **kwargs)


def _reference(scenario, planner, n_sims, seed):
    return reference_batch_detailed(
        _engine(scenario), planner, EstimatorKind.RAW, n_sims, seed
    )


def _batch(runner, planner, n_sims, seed):
    """The whole batch ``range(n_sims)``, each index attempted once."""
    return runner.run_indices_detailed(planner, range(n_sims), n_sims, seed)


def _failed(chunk):
    return [f.index for f in chunk.failures]


class _CallLog:
    """A chunk executor over one runner that logs every call."""

    def __init__(self, runner, planner, n_sims, seed):
        self._runner = runner
        self._planner = planner
        self._n_sims = n_sims
        self._seed = seed
        #: ``(indices, ChunkResult)`` per call, in call order.
        self.calls = []

    def __call__(self, indices):
        result = self._runner.run_indices_detailed(
            self._planner, indices, self._n_sims, self._seed
        )
        self.calls.append((list(indices), result))
        return result


def _attempts(execute, n_sims, max_attempts=3):
    """:func:`run_chunk_attempts` over ``range(n_sims)``, without waits.

    Returns the merged chunk and the attempt numbers that were retried.
    """
    retried = []
    result = run_chunk_attempts(
        execute,
        list(range(n_sims)),
        "0" * 64,
        0,
        BackoffPolicy(max_attempts=max_attempts, base_delay=0.0, jitter=0.0),
        lambda delay: None,
        lambda attempt, delay: retried.append(attempt),
    )
    return result, retried


class TestSimulationErrors:
    def test_matches_sequential_failures_and_survivors(self, scenario):
        planner = FlakyPlanner()
        reference = _reference(scenario, planner, 8, 11)
        batch = _batch(_runner(scenario, timeout_per_sim=60.0), planner, 8, 11)
        # The probe threshold must actually split the batch.
        assert 0 < reference.n_failed < reference.n_total
        assert _failed(batch) == _failed(reference)
        assert all(f.stage == "simulation" for f in batch.failures)
        assert all(f.error_type == "PlannerError" for f in batch.failures)
        assert sorted(batch.results) == sorted(reference.results)
        for k, ref in reference.results.items():
            assert _fingerprint(batch.results[k]) == _fingerprint(ref)

    def test_in_episode_errors_are_not_retried(self, scenario):
        log = _CallLog(_runner(scenario), FlakyPlanner(), 6, 11)
        chunk, retried = _attempts(log, 6)
        assert chunk.n_failed > 0
        assert all(f.attempts == 1 for f in chunk.failures)
        assert len(log.calls) == 1 and retried == []

    def test_run_batch_raises_with_failure_summary(self, scenario):
        with pytest.raises(SimulationError, match="simulations failed"):
            _runner(scenario).run_batch(FlakyPlanner(), 6, seed=11)

    def test_single_worker_path_records_failures(self, scenario):
        """The in-process path records in-episode errors too."""
        batch = _batch(_runner(scenario), FlakyPlanner(), 6, 11)
        reference = _reference(scenario, FlakyPlanner(), 6, 11)
        assert _failed(batch) == _failed(reference)


class TestWorkerCrash:
    def test_crash_is_retried_to_bit_identical_results(self, scenario, tmp_path):
        chaos = WorkerChaosOnce(str(tmp_path / "crash"), mode="exit")
        planner = ConstantPlanner(2.0)
        clean = _runner(scenario).run_batch(planner, 6, seed=3)
        log = _CallLog(_runner(scenario, chaos=chaos), planner, 6, 3)
        crashed, retried = _attempts(log, 6)
        assert not chaos.armed()  # the crash really happened
        assert retried == [2]
        assert crashed.n_failed == 0
        assert [_fingerprint(crashed.results[k]) for k in range(6)] == [
            _fingerprint(r) for r in clean
        ]

    def test_crash_with_retries_exhausted_surfaces_worker_records(
        self, scenario, tmp_path
    ):
        chaos = WorkerChaosOnce(str(tmp_path / "crash"), mode="exit")
        log = _CallLog(
            _runner(scenario, chaos=chaos), ConstantPlanner(2.0), 6, 3
        )
        batch, _ = _attempts(log, 6, max_attempts=1)
        assert not chaos.armed()
        # Only the crashed index fails: its worker is replaced and the
        # siblings run on the replacement.
        assert batch.n_failed > 0
        assert [f.index for f in batch.failures] == [0]
        assert all(f.stage == "worker" for f in batch.failures)
        assert all(f.attempts == 1 for f in batch.failures)


class TestGarbagePayload:
    def test_garbage_is_retried_to_bit_identical_results(
        self, scenario, tmp_path
    ):
        chaos = WorkerChaosOnce(str(tmp_path / "garbage"), mode="garbage")
        planner = ConstantPlanner(2.0)
        clean = _runner(scenario).run_batch(planner, 6, seed=3)
        log = _CallLog(_runner(scenario, chaos=chaos), planner, 6, 3)
        garbled, retried = _attempts(log, 6)
        assert not chaos.armed()
        assert retried == [2]
        assert garbled.n_failed == 0
        assert [_fingerprint(garbled.results[k]) for k in range(6)] == [
            _fingerprint(r) for r in clean
        ]

    def test_garbage_with_retries_exhausted_is_marked_malformed(
        self, scenario, tmp_path
    ):
        chaos = WorkerChaosOnce(str(tmp_path / "garbage"), mode="garbage")
        log = _CallLog(
            _runner(scenario, chaos=chaos), ConstantPlanner(2.0), 6, 3
        )
        batch, _ = _attempts(log, 6, max_attempts=1)
        assert not chaos.armed()
        assert batch.n_failed > 0
        assert [f.index for f in batch.failures] == [0]
        assert all(f.stage == "worker" for f in batch.failures)
        assert any("MalformedPayload" == f.error_type for f in batch.failures)


class TestTimeout:
    def test_hung_simulations_surface_timeout_records(self, scenario):
        batch = _batch(
            _runner(scenario, timeout_per_sim=0.75), SleepyPlanner(), 2, 0
        )
        assert batch.n_failed == 2
        assert all(f.stage == "timeout" for f in batch.failures)
        assert batch.completed == []
        assert multiprocessing.active_children() == []

    def test_timeout_budget_scales_with_chunk_size(self, scenario):
        """A healthy batch under a generous per-sim budget completes:
        every index gets its own budget, however long the chunk."""
        batch = _batch(
            _runner(scenario, timeout_per_sim=120.0), ConstantPlanner(2.0), 4, 1
        )
        assert batch.n_failed == 0
        assert len(batch.completed) == 4

    def test_wedged_campaign_chunk_leaves_no_live_workers(
        self, scenario, tmp_path
    ):
        """A hung episode's worker dies with it, even when forked from a
        campaign runner whose SIGTERM drain handler it inherits."""
        manifest = CampaignManifest(
            name="wedged",
            scenario={"kind": "left_turn"},
            comm={"sensor_noise": 0.3},
            planner={"kind": "constant", "acceleration": 2.0},
            n_sims=4,
            seed=5,
            chunk_size=4,
            config={"max_time": 8.0},
        )
        runner = _runner(scenario, timeout_per_sim=0.2)

        def execute(indices):
            return runner.run_indices_detailed(
                SleepyPlanner(), indices, manifest.n_sims, manifest.seed
            )

        directory = tmp_path / "campaign"
        report = CampaignRunner(
            manifest, directory, chunk_executor=execute
        ).run()
        assert multiprocessing.active_children() == []
        assert report.status == "completed"
        assert report.n_failed == 4
        assert campaign_status(directory)["chunk_retries"] == {"0": 2}
        snapshot = json.loads(chunk_path(directory, 0).read_text())
        assert [f["stage"] for f in snapshot["failures"]] == ["timeout"] * 4
        assert [f["attempts"] for f in snapshot["failures"]] == [3] * 4


class TestRetryRule:
    def test_retry_receives_only_transient_indices(self, scenario, tmp_path):
        """A crashed index is re-run alone; the deterministic in-episode
        failures of the first attempt are kept, not re-run."""
        chaos = WorkerChaosOnce(str(tmp_path / "crash"), mode="exit")
        planner = FlakyPlanner()
        reference = _reference(scenario, planner, 8, 11)
        log = _CallLog(_runner(scenario, chaos=chaos), planner, 8, 11)
        chunk, retried = _attempts(log, 8)
        assert [indices for indices, _ in log.calls] == [list(range(8)), [0]]
        assert retried == [2]
        assert _failed(chunk) == _failed(reference)
        assert all(f.stage == "simulation" for f in chunk.failures)
        for k, ref in reference.results.items():
            assert _fingerprint(chunk.results[k]) == _fingerprint(ref)

    def test_exhausted_records_carry_max_attempts(self, scenario):
        log = _CallLog(
            _runner(scenario, timeout_per_sim=0.1), SleepyPlanner(), 2, 0
        )
        chunk, retried = _attempts(log, 2, max_attempts=3)
        assert [indices for indices, _ in log.calls] == [[0, 1]] * 3
        assert retried == [2, 3]
        assert chunk.n_failed == 2
        assert all(f.stage == "timeout" for f in chunk.failures)
        assert all(f.attempts == 3 for f in chunk.failures)

    @pytest.mark.parametrize("mode", ["hang", "exit"])
    def test_neighbours_of_a_failed_index_complete_first_time(
        self, scenario, tmp_path, mode
    ):
        chaos = WorkerChaosOnce(str(tmp_path / mode), mode=mode)
        planner = ConstantPlanner(2.0)
        clean = _runner(scenario).run_batch(planner, 4, seed=3)
        log = _CallLog(
            _runner(scenario, timeout_per_sim=1.0, chaos=chaos), planner, 4, 3
        )
        chunk, retried = _attempts(log, 4)
        _, first = log.calls[0]
        assert [f.index for f in first.failures] == [0]
        assert sorted(first.results) == [1, 2, 3]
        assert [indices for indices, _ in log.calls[1:]] == [[0]]
        assert chunk.n_failed == 0
        assert [_fingerprint(chunk.results[k]) for k in range(4)] == [
            _fingerprint(r) for r in clean
        ]


class _Replied:
    """A watchdog pipe end whose worker has answered ``payload``."""

    def __init__(self, payload):
        self._payload = payload

    def send(self, index):
        pass

    def poll(self, timeout):
        return True

    def recv(self):
        return self._payload


def _simulation_failure(index):
    return FailureRecord(index, "simulation", "PlannerError", "injected")


class TestWatchdogReply:
    """A worker reply is accepted only as the ChunkResult of the index
    that was asked for; anything else is a transient worker failure."""

    @pytest.mark.parametrize(
        "reply",
        [
            "chaos: malformed payload",
            ChunkResult(indices=[1], results={}, failures=[_simulation_failure(1)]),
            ChunkResult(
                indices=[0, 1],
                results={},
                failures=[_simulation_failure(0), _simulation_failure(1)],
            ),
        ],
        ids=["string", "other-index", "two-indices"],
    )
    def test_malformed_reply_is_a_transient_worker_failure(
        self, scenario, reply
    ):
        runner = _runner(scenario, timeout_per_sim=1.0)
        chunk = runner._ask(_Replied(reply), 0)
        assert chunk.indices == [0]
        assert chunk.results == {}
        [failure] = chunk.failures
        assert (failure.index, failure.stage, failure.error_type) == (
            0, "worker", "MalformedPayload"
        )
        assert chunk.transient_failures == [failure]

    @pytest.mark.parametrize("outcome", ["result", "simulation-failure"])
    def test_one_index_reply_is_accepted(self, scenario, outcome):
        if outcome == "result":
            reply = ChunkResult(
                indices=[0],
                results={0: SimulationResult(Outcome.REACHED, reaching_time=4.0)},
            )
        else:
            reply = ChunkResult(
                indices=[0], results={}, failures=[_simulation_failure(0)]
            )
        runner = _runner(scenario, timeout_per_sim=1.0)
        assert runner._ask(_Replied(reply), 0) is reply


class TestValidation:
    def test_bad_batch_size(self, scenario):
        with pytest.raises(SimulationError):
            _runner(scenario).run_batch(ConstantPlanner(0.0), 0)

    def test_nonpositive_timeout_rejected(self, scenario):
        with pytest.raises(SimulationError):
            _runner(scenario, timeout_per_sim=0.0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, scenario, timeout):
        with pytest.raises(SimulationError, match="timeout_per_sim must be > 0"):
            _runner(scenario, timeout_per_sim=timeout)
