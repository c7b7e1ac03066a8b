"""Tests of the engine benchmark harness (not of engine speed).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/engine -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from layers import (
    LAYER_METHODS,
    Bias,
    EpisodeLog,
    SpanRecorder,
    aggregate,
    instrumented,
)
from repro.sim.engine import SimulationEngine
from stats import highest_supported_percentile, percentile, quartiles

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"


class FakeClock:
    """Returns the queued readings in order."""

    def __init__(self, readings):
        self._readings = list(readings)

    def __call__(self):
        return self._readings.pop(0)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_highest_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected


def test_percentile_interpolates_and_quartiles_match_statistics():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == pytest.approx(50.5)
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 100.0) == 100.0
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, q2, q3 = quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, q2, q3) == pytest.approx((1.25, 2.5, 3.75))


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------
def _nested_recorder():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9].
    recorder = SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = recorder.begin("root")
    a = recorder.begin("a")
    a1 = recorder.begin("a1")
    recorder.end(a1)
    recorder.end(a)
    b = recorder.begin("b")
    recorder.end(b)
    recorder.end(root)
    return recorder


def test_self_time_subtracts_direct_children_only():
    totals = aggregate(_nested_recorder())
    assert totals["root"].total == pytest.approx(10.0)
    assert totals["root"].self_time == pytest.approx(3.0)
    assert totals["a"].self_time == pytest.approx(2.0)
    assert totals["a1"].self_time == pytest.approx(1.0)
    assert totals["b"].self_time == pytest.approx(4.0)
    assert sum(t.self_time for t in totals.values()) == pytest.approx(10.0)
    assert all(t.calls == 1 for t in totals.values())


def test_bias_is_removed_per_span_and_per_nested_span():
    bias = Bias(outside=0.1, inside=0.05)
    totals = aggregate(_nested_recorder(), bias)
    # root has 3 spans inside it: 10 - 0.05 - 3 * 0.15.
    assert totals["root"].total == pytest.approx(9.5)
    # Self time loses its own inside cost and one outside cost per child.
    assert totals["root"].self_time == pytest.approx(3.0 - 0.05 - 2 * 0.1)
    assert totals["a"].self_time == pytest.approx(2.0 - 0.05 - 0.1)
    assert totals["a1"].self_time == pytest.approx(1.0 - 0.05)
    assert sum(t.self_time for t in totals.values()) == pytest.approx(9.5)


def test_ending_a_parent_closes_open_children():
    recorder = SpanRecorder(clock=FakeClock([0, 1, 2, 5, 6]))
    outer = recorder.begin("outer")
    recorder.begin("left-open")
    recorder.end(outer)
    recorder.end(outer)  # already closed: ignored
    assert recorder.ends == [2, 2]
    late = recorder.begin("late")
    assert recorder.parents[late] == -1


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def _originals():
    wrapped = [(SimulationEngine, "run")]
    wrapped += [(cls, attribute) for _, cls, attribute in LAYER_METHODS]
    return {(cls, attribute): cls.__dict__[attribute] for cls, attribute in wrapped}


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    before = _originals()
    result = run.run_workload(
        "campaign-storm", seed=0, seconds=0.0, trace=True, smoke=True, out=tmp_path
    )
    assert result["correct"], result["problems"]
    assert _originals() == before
    metrics = result["metrics"]
    assert metrics["filter.replay.calls_per_step"]["value"] > 0.0
    assert metrics["shield.nn.calls_per_step"]["value"] == 0.0
    assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]


def test_wrappers_are_restored_when_the_measured_code_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with instrumented(EpisodeLog(), SpanRecorder()):
            assert SimulationEngine.__dict__["run"] is not before[(SimulationEngine, "run")]
            raise RuntimeError("boom")
    assert _originals() == before


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------
def test_compare_rejects_the_degraded_fixture():
    assert compare.main(
        ["--base", str(DATA / "baseline.json"), "--head", str(DATA / "degraded.json")]
    ) == 1


def test_compare_accepts_a_result_compared_with_itself():
    baseline = str(DATA / "baseline.json")
    assert compare.main(["--base", baseline, "--head", baseline]) == 0


def test_compare_verdicts():
    spec = {
        "workloads": [{"name": "w", "why": ""}],
        "end_to_end": [
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
        ],
    }

    def runs(values):
        return [
            {"workload": "w", "metrics": {"rate": {"value": v, "unit": "1/s"}}}
            for v in values
        ]

    steady = [100.0 + i * 0.1 for i in range(10)]
    faster = [120.0 + i * 0.1 for i in range(10)]
    noisy = [60.0, 140.0, 70.0, 130.0, 100.0, 80.0, 120.0, 90.0, 110.0, 100.0]

    def status(base, head):
        (verdict,) = compare.compare(runs(base), runs(head), spec)
        return verdict.status

    assert status(steady, faster) == "improved"
    assert status(faster, steady) == "regressed"
    assert status(steady, steady) == "unchanged"
    assert status(noisy, [95.0] * 10) == "unresolved"
    # Nine pairs cannot support a claim, however large the gain.
    assert status(steady[:9], faster[:9]) == "unchanged"


def test_compare_refuses_smoke_runs_and_mixed_run_lengths(tmp_path):
    document = json.loads((DATA / "baseline.json").read_text())
    for result in document["workloads"].values():
        result["seconds"] = 20.0
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps(document))
    baseline = str(DATA / "baseline.json")
    assert compare.main(["--base", baseline, "--head", str(longer)]) == 2
    for result in document["workloads"].values():
        result["seconds"] = 10.0
        result["smoke"] = True
    smoke = tmp_path / "smoke.json"
    smoke.write_text(json.dumps(document))
    assert compare.main(["--base", baseline, "--head", str(smoke)]) == 2


# ---------------------------------------------------------------------------
# Failures
# ---------------------------------------------------------------------------
class RaisingWorkload:
    """Runs one episode per round; the round on ``bad_seed`` raises."""

    def __init__(self, log, bad_seed):
        self.log = log
        self.bad_seed = bad_seed

    def run_round(self, seed, size, workdir):
        if seed == self.bad_seed:
            self.log.raised += 1
            raise RuntimeError("episode blew up")
        return lambda: []


def test_a_raising_round_is_counted_and_ends_the_pass(tmp_path):
    log = EpisodeLog()
    rounds = run.run_rounds(
        RaisingWorkload(log, bad_seed=7), 5, 1, tmp_path, 10, 0.0, log
    )
    assert rounds.aborted
    assert len(rounds.walls) == 2
    assert (rounds.attempted, rounds.failed) == (1, 1)
    assert rounds.problems == ["round on seed 7 raised RuntimeError: episode blew up"]


def _all_args(out):
    return run.parse_args(
        ["--workload", "all", "--seed", "0", "--seconds", "1", "--out", str(out)]
    )


def _plant_stale_results(out):
    for name in run.WORKLOAD_NAMES:
        stale = {
            "workload": name,
            "correct": True,
            "attempted": 1,
            "failed": 0,
            "problems": [],
            "metrics": {},
        }
        (out / name).mkdir(parents=True)
        (out / name / "result.json").write_text(json.dumps(stale))


@pytest.mark.parametrize(
    "child, timeout, problem",
    [
        ("import sys; sys.exit(3)", 60, "workload process exited with code 3"),
        ("import time; time.sleep(60)", 0.5, "workload process killed after 0.5 s"),
    ],
)
def test_a_failed_child_fails_its_workload_despite_a_stale_result(
    tmp_path, monkeypatch, capsys, child, timeout, problem
):
    _plant_stale_results(tmp_path)
    monkeypatch.setattr(
        run, "child_command", lambda name, args, out: [sys.executable, "-c", child]
    )
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", timeout)
    assert run.run_all(_all_args(tmp_path)) == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] is False
    document = json.loads((tmp_path / "result.json").read_text())
    for result in document["workloads"].values():
        assert not result["correct"]
        assert result["problems"] == ["workload process wrote no result", problem]
    for name in run.WORKLOAD_NAMES:
        assert not (tmp_path / name / "result.json").exists()


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------
def test_smoke_run_of_every_workload_meets_the_output_contract(tmp_path):
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", "all",
            "--seed", "0",
            "--smoke",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    document = json.loads((tmp_path / "result.json").read_text())
    assert set(document["workloads"]) == set(run.WORKLOAD_NAMES)
    benchmark = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    names = {entry["name"] for entry in benchmark["end_to_end"]}
    for result in document["workloads"].values():
        assert set(result["metrics"]) == names
        assert result["rounds"] == 1


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    copy = tmp_path / "benchmarks" / "engine"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "table1", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        check=False,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
