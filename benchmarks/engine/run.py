"""Engine benchmark: closed-loop episodes/s and per-layer us/step.

Run from the repository root::

    python3 benchmarks/engine/run.py --workload ultimate-delayed --seed 1
    python3 benchmarks/engine/run.py --workload all --seed 1 --trace 1

``--workload all`` runs each workload in its own fresh subprocess, one
after another.  Every process pins the BLAS/OpenMP pools to one thread,
so a run uses one core.

Untraced (``--trace 0``), a workload is set up ``SETUP_REPEATS`` times
(planner training, construction and one warm-up round; ``setup_s`` is
the median), then measured in short rounds: round ``r``
runs on batch seed ``seed + r``, at least ``MIN_ROUNDS`` rounds and until
``--seconds`` have passed (by default ``run_seconds`` of
``BENCHMARK.json``; ``compare.py`` refuses results of different
lengths).  Each round is bracketed by two timings of a
reference kernel, and its timings are scaled to the reference machine
speed (see ``speed.py``).  Round timings are medians over rounds;
episode latencies are pooled over every episode; ``mean_eta`` covers the
first ``MIN_ROUNDS`` rounds, so it depends on the seed alone.  A round
that raises ends the run as incorrect, with the raised episodes counted
as failed.

Traced (``--trace 1``), the workload is set up once and rounds
``0 .. TRACE_ROUNDS - 1`` run twice: untraced, then with every layer
wrapper installed.  The per-layer metrics come from the traced pass,
which must reproduce the untraced pass's outcomes exactly; its first
episodes are written as a Chrome trace to ``OUT/trace.json``.

Every metric is printed by name with its unit and written, with the
correctness verdict, to ``OUT/result.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

#: Thread pools pinned to one thread in every benchmark process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("ultimate-delayed", "basic-delayed", "table1", "campaign-storm")

#: Timed rounds every untraced run makes, whatever ``--seconds`` says;
#: ``mean_eta`` and the table1 shape cover exactly these.
MIN_ROUNDS = 30

#: Rounds a traced run makes, untraced and then traced.
TRACE_ROUNDS = 10

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Episodes written to the Chrome trace of a traced run.
TRACE_EPISODES = 20

#: Wall-clock limit of one workload subprocess under ``--workload all``.
CHILD_TIMEOUT_S = 900

#: A metric value and its unit.
Metric = Tuple[float, str]


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Engine benchmark: episodes/s end to end, us/step per layer."
    )
    parser.add_argument(
        "--workload", required=True, choices=("all",) + WORKLOAD_NAMES
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed phase length [s] (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from traced rounds",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="result directory (default .bench_build/engine/<workload>)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="one set-up, one round: checks the harness, not speed",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        benchmark = ROOT / "BENCHMARK.json"
        if not benchmark.is_file():
            parser.error(f"no --seconds and no {benchmark}")
        args.seconds = float(json.loads(benchmark.read_text())["run_seconds"])
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.out is None:
        suffix = "-trace" if args.trace else ""
        args.out = ROOT / ".bench_build" / "engine" / f"{args.workload}{suffix}"
    return args


@dataclass
class Rounds:
    """The rounds of one pass; times scaled to the reference speed."""

    walls: List[float] = field(default_factory=list)
    raw_walls: List[float] = field(default_factory=list)
    steps: List[int] = field(default_factory=list)
    durations: List[float] = field(default_factory=list)
    results: List[list] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: A round raised; the rounds after it were not run.
    aborted: bool = False

    def outcomes(self) -> List[tuple]:
        """What each episode did, in order: the traced-run identity check."""
        return [
            (
                result.outcome.value,
                result.steps,
                result.emergency_steps,
                result.reaching_time,
                result.collision_time,
            )
            for results in self.results
            for result in results
        ]


def run_rounds(workload, seed, size, workdir, min_rounds, seconds, log) -> Rounds:
    """Rounds ``seed, seed + 1, ...`` until both limits are met.

    ``log`` must be installed (see ``layers.instrumented``); it is
    cleared before every round.  A round that raises is recorded as a
    problem, its episodes are counted, and no further round runs.
    """
    from speed import reference_seconds, speed_factor

    rounds = Rounds()
    before = reference_seconds()
    phase_started = time.perf_counter()
    while (
        len(rounds.walls) < min_rounds
        or time.perf_counter() - phase_started < seconds
    ):
        gc.collect()
        log.clear()
        round_seed = seed + len(rounds.walls)
        started = time.perf_counter()
        try:
            check = workload.run_round(round_seed, size, workdir)
        except Exception as exc:
            rounds.attempted += log.attempted
            rounds.failed += log.failed
            rounds.problems.append(
                f"round on seed {round_seed} raised {type(exc).__name__}: {exc}"
            )
            rounds.aborted = True
            break
        wall = time.perf_counter() - started
        after = reference_seconds()
        factor = speed_factor(before, after)
        before = after
        rounds.raw_walls.append(wall)
        rounds.walls.append(wall * factor)
        rounds.steps.append(log.planned_steps)
        rounds.durations.extend(duration * factor for duration in log.durations)
        rounds.results.append(list(log.results))
        rounds.attempted += log.attempted
        rounds.failed += log.failed
        rounds.problems.extend(check())
    return rounds


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed: int, size: int, workdir: Path) -> Tuple[float, List[str]]:
    """Set up and run one warm-up round of ``size``.

    Returns the set-up time scaled to the reference speed, and the
    warm-up's correctness problems.
    """
    from speed import reference_seconds, speed_factor
    from workloads import WARMUP_SEED_OFFSET

    gc.collect()
    before = reference_seconds()
    started = time.perf_counter()
    workload.setup()
    check = workload.run_round(seed + WARMUP_SEED_OFFSET, size, workdir)
    elapsed = time.perf_counter() - started
    scaled = elapsed * speed_factor(before, reference_seconds())
    return scaled, check()


def measure_untraced(
    workload, seed: int, seconds: float, smoke: bool, workdir: Path
) -> dict:
    """Set-up time and end-to-end metrics of one workload."""
    from layers import EpisodeLog, instrumented
    from stats import highest_supported_percentile, percentile

    size = workload.smoke_size if smoke else workload.round_size
    problems: List[str] = []
    setups = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        elapsed, setup_problems = _setup(workload, seed, size, workdir)
        setups.append(elapsed)
        problems.extend(setup_problems)

    min_rounds = 1 if smoke else MIN_ROUNDS
    log = EpisodeLog()
    with instrumented(log):
        rounds = run_rounds(
            workload, seed, size, workdir, min_rounds, 0.0 if smoke else seconds, log
        )
    problems.extend(rounds.problems)
    if rounds.aborted:
        return _aborted(rounds, problems)
    problems.extend(workload.finish([seed + r for r in range(min_rounds)]))

    rates = [
        len(results) / wall for results, wall in zip(rounds.results, rounds.walls)
    ]
    step_times = [
        wall / max(steps, 1) * 1e6 for wall, steps in zip(rounds.walls, rounds.steps)
    ]
    etas = [
        result.eta for results in rounds.results[:min_rounds] for result in results
    ]
    durations = rounds.durations
    speed = sum(rounds.walls) / sum(rounds.raw_walls)
    raw_step_us = statistics.median(
        wall / max(steps, 1) * 1e6
        for wall, steps in zip(rounds.raw_walls, rounds.steps)
    )
    print(
        f"# {workload.name}: {len(rounds.walls)} rounds, {len(durations)} "
        f"episodes (highest supported percentile: "
        f"{highest_supported_percentile(len(durations))}); mean speed factor "
        f"{speed:.3f}, unscaled step_us {raw_step_us:.1f}"
    )
    metrics: Dict[str, Metric] = {
        "setup_s": (statistics.median(setups), "s"),
        "episodes_per_s": (statistics.median(rates), "1/s"),
        "step_us": (statistics.median(step_times), "us"),
        "episode_ms_p50": (percentile(durations, 50.0) * 1e3, "ms"),
        "episode_ms_p95": (percentile(durations, 95.0) * 1e3, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "mean_eta": (statistics.fmean(etas), "1"),
    }
    return {
        "rounds": len(rounds.walls),
        "episodes": len(durations),
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "problems": problems,
        "metrics": metrics,
        # Not metrics: what the speed scaling did, so that a claim can be
        # checked with the scaling and without it.
        "unscaled": {"speed_factor": speed, "step_us": raw_step_us},
    }


def _aborted(rounds: Rounds, problems: List[str]) -> dict:
    """The result of a pass cut short by a raising round: no metrics."""
    return {
        "rounds": len(rounds.walls),
        "episodes": len(rounds.durations),
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "problems": problems,
        "metrics": {},
        "unscaled": {},
    }


def measure_traced(workload, seed: int, smoke: bool, workdir: Path, out: Path) -> dict:
    """Per-layer metrics from traced rounds, checked against untraced ones."""
    from layers import (
        SPAN_NAMES,
        Bias,
        EpisodeLog,
        LayerTotals,
        ReplayCounter,
        SpanRecorder,
        aggregate,
        calibrate,
        instrumented,
        stage_coverage,
        write_chrome_trace,
    )
    from speed import reference_seconds, speed_factor

    size = workload.smoke_size if smoke else workload.round_size
    _, problems = _setup(workload, seed, size, workdir)
    n_rounds = 1 if smoke else TRACE_ROUNDS

    plain_log = EpisodeLog()
    with instrumented(plain_log):
        plain = run_rounds(workload, seed, size, workdir, n_rounds, 0.0, plain_log)
    problems.extend(plain.problems)
    if plain.aborted:
        return _aborted(plain, problems)
    recorder = SpanRecorder()
    replays = ReplayCounter()
    traced_log = EpisodeLog()
    with instrumented(traced_log, recorder, replays):
        traced = run_rounds(workload, seed, size, workdir, n_rounds, 0.0, traced_log)
    problems.extend(traced.problems)
    if traced.aborted:
        return _aborted(traced, problems)
    if traced.outcomes() != plain.outcomes():
        problems.append(
            "traced rounds do not reproduce the untraced rounds' outcomes"
        )

    # Span times scale to the reference speed like the rounds they ran
    # in; the recorder's bias is measured at another moment, so it is
    # first brought to the traced rounds' speed.
    traced_speed = sum(traced.walls) / sum(traced.raw_walls)
    before = reference_seconds()
    bias = calibrate()
    scale = speed_factor(before, reference_seconds()) / traced_speed
    bias = Bias(outside=bias.outside * scale, inside=bias.inside * scale)
    totals = aggregate(recorder, bias)
    steps = max(sum(traced.steps), 1)
    to_us_per_step = traced_speed / steps * 1e6
    metrics: Dict[str, Metric] = {}
    for name in SPAN_NAMES:
        entry = totals.get(name, LayerTotals())
        metrics[f"{name}.us_per_step"] = (entry.total * to_us_per_step, "us/step")
        metrics[f"{name}.self_us_per_step"] = (
            entry.self_time * to_us_per_step,
            "us/step",
        )
        metrics[f"{name}.calls_per_step"] = (entry.calls / steps, "calls/step")
    episodes = [result for results in traced.results for result in results]
    messages = totals.get("filter.replay", LayerTotals()).calls
    channel_stats = [
        stats for result in episodes for stats in result.channel_stats.values()
    ]
    sent = sum(stats.sent for stats in channel_stats)
    delivered = sum(stats.delivered for stats in channel_stats)
    emergency = sum(result.emergency_steps for result in episodes)
    metrics.update(
        {
            "filter.replay_depth_mean": (
                replays.depth / replays.replays if replays.replays else 0.0,
                "readings",
            ),
            "filter.replay_useful_ratio": (
                replays.replays / messages if messages else 0.0,
                "ratio",
            ),
            "shield.emergency_ratio": (emergency / steps, "ratio"),
            "comm.delivered_ratio": (delivered / sent if sent else 0.0, "ratio"),
            "executor.overhead_ratio": (
                1.0 - sum(plain.durations) / sum(plain.walls),
                "ratio",
            ),
            "trace.overhead_ratio": (sum(traced.walls) / sum(plain.walls) - 1.0, "ratio"),
            "trace.stage_coverage_ratio": (stage_coverage(totals), "ratio"),
        }
    )
    n_events = write_chrome_trace(recorder, out / "trace.json", TRACE_EPISODES)
    print(
        f"# {workload.name}: {len(recorder)} spans, {n_events} in "
        f"{out / 'trace.json'}; recorder bias per span "
        f"{bias.outside * 1e9:.0f} ns outside, {bias.inside * 1e9:.0f} ns inside"
    )
    return {
        "rounds": n_rounds,
        "episodes": len(episodes),
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "problems": problems,
        "metrics": metrics,
        "unscaled": {"speed_factor": traced_speed},
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, out: Path
) -> dict:
    """Measure one workload in this process; returns the result document."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = out / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    if trace:
        measured = measure_traced(workload, seed, smoke, workdir, out)
    else:
        measured = measure_untraced(workload, seed, seconds, smoke, workdir)
    problems = measured["problems"]
    if measured["failed"]:
        problems.append(
            f"failed_ratio = {measured['failed']}/{measured['attempted']} "
            "(episodes that raised or collided)"
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "problems": problems,
        "rounds": measured["rounds"],
        "episodes": measured["episodes"],
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in measured["metrics"].items()
        },
        "unscaled": measured["unscaled"],
    }


def _summary_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )


def _report(result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{result['workload']:<17} {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"FAIL {result['workload']}: {problem}")


def child_command(name: str, args: argparse.Namespace, out: Path) -> List[str]:
    """The command that measures workload ``name`` in a fresh process."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    return command


def run_child(name: str, args: argparse.Namespace) -> dict:
    """Measure workload ``name`` in a subprocess; returns its result.

    A result counts only if this child wrote it and exited with code 0;
    a child that exits otherwise, or runs past ``CHILD_TIMEOUT_S``, makes
    the workload incorrect with the reason named.
    """
    child_out = args.out / name
    result_path = child_out / "result.json"
    # A result left by an earlier run must not stand in for this one.
    result_path.unlink(missing_ok=True)
    try:
        # The child's lines pass straight through; on timeout run() kills
        # the child and waits for it before raising.
        returncode = subprocess.run(
            child_command(name, args, child_out), check=False, timeout=CHILD_TIMEOUT_S
        ).returncode
        problem = (
            None if returncode == 0 else f"workload process exited with code {returncode}"
        )
    except subprocess.TimeoutExpired:
        problem = f"workload process killed after {CHILD_TIMEOUT_S} s"
    if result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        result = {
            "workload": name,
            "correct": False,
            "attempted": 0,
            "failed": 0,
            "problems": ["workload process wrote no result"],
            "metrics": {},
        }
    if problem is not None:
        result["correct"] = False
        result["problems"].append(problem)
    return result


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess; results merged into OUT/result.json."""
    combined = {name: run_child(name, args) for name in WORKLOAD_NAMES}
    args.out.mkdir(parents=True, exist_ok=True)
    document = {"seed": args.seed, "trace": args.trace, "workloads": combined}
    (args.out / "result.json").write_text(json.dumps(document, indent=2))
    correct = all(result["correct"] for result in combined.values())
    for name, result in combined.items():
        for problem in result["problems"]:
            print(f"FAIL {name}: {problem}")
    print(
        _summary_line(
            correct,
            sum(result["attempted"] for result in combined.values()),
            sum(result["failed"] for result in combined.values()),
            {
                f"{name}/{metric}": entry
                for name, result in combined.items()
                for metric, entry in result["metrics"].items()
            },
        )
    )
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    # Before numpy is first imported, here or in a child process.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.smoke,
        args.out,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result.json").write_text(json.dumps(result, indent=2))
    _report(result)
    print(
        _summary_line(
            result["correct"], result["attempted"], result["failed"], result["metrics"]
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
