#!/usr/bin/env python
"""End-to-end observability smoke test (``make trace-smoke``).

Two phases:

1. **Trace validity.** Record one fully traced storm episode through
   :func:`repro.obs.cli.record_trace`, require the Chrome trace-event
   export to validate (Perfetto-loadable) and to contain the promised
   content — per-step engine spans, shield-switch instants, filter
   replay events, channel counters.  Then run a small traced campaign
   and require ``repro-campaign status`` to surface the operational
   fields (per-chunk retries, elapsed summary) plus the ``metrics.json``
   sidecar, while the traced ``aggregate.json`` stays byte-identical to
   an untraced reference.

2. **Disabled-observer overhead gate.** Time a micro batch of episodes
   on the default (``observer=None``) path against the same batch with
   the shared ``NULL_OBSERVER`` passed explicitly — both exercise the
   disabled instrumentation — and fail if the slower path exceeds the
   faster by more than ``REPRO_TRACE_TOL`` (default 3%) plus a small
   absolute floor.  The measured timings are recorded as
   ``BENCH_trace_smoke.json`` via the bench-record writer so later PRs
   can compare.

Exits 0 on success, 1 on any violated expectation.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign.manifest import CampaignManifest  # noqa: E402
from repro.campaign.runner import (  # noqa: E402
    AGGREGATE_FILE,
    METRICS_FILE,
    CampaignRunner,
    campaign_status,
)
from repro.comm.faults import no_disturbance  # noqa: E402
from repro.obs.bench_record import write_bench_documents  # noqa: E402
from repro.obs.cli import record_trace  # noqa: E402
from repro.obs.export import validate_chrome_trace  # noqa: E402
from repro.obs.observer import NULL_OBSERVER, Observer  # noqa: E402
from repro.obs.trace import perf_now  # noqa: E402
from repro.planners.constant import ConstantPlanner  # noqa: E402
from repro.scenarios.left_turn.scenario import LeftTurnScenario  # noqa: E402
from repro.sensing.noise import NoiseBounds  # noqa: E402
from repro.sim.engine import (  # noqa: E402
    CommSetup,
    SimulationConfig,
    SimulationEngine,
)
from repro.sim.runner import (  # noqa: E402
    EstimatorKind,
    make_estimator_factory,
)
from repro.utils.rng import RngStream  # noqa: E402

#: Relative tolerance of the overhead gate (widen on noisy machines).
TOLERANCE = float(os.environ.get("REPRO_TRACE_TOL", "0.03"))

#: Absolute floor [s] so micro-jitter cannot fail a sub-millisecond gap.
FLOOR_SECONDS = 0.05

#: Episodes per timing repetition and repetitions per path.
MICRO_EPISODES = 8
REPEATS = 3

_failures = []


def _check(condition, message):
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures.append(message)


# ---------------------------------------------------------------------------
# Phase 1: trace validity + campaign operational surface
# ---------------------------------------------------------------------------
def phase_trace(workdir: Path) -> None:
    print("phase 1: trace validity")
    report = record_trace(
        workdir / "trace", scenario="left_turn", faults="storm", seed=3
    )
    document = json.loads(report["chrome"].read_text(encoding="utf-8"))
    problems = validate_chrome_trace(document)
    _check(problems == [], f"chrome trace validates ({report['chrome']})")
    for problem in problems:
        print(f"    problem: {problem}")

    tracer = report["observer"].tracer
    _check(
        len(tracer.events_named("engine.step")) > 10,
        "per-step engine spans recorded",
    )
    _check(
        bool(tracer.events_named("shield.engage")),
        "shield-switch instants recorded",
    )
    _check(
        bool(tracer.events_named("filter.replay")),
        "filter replay instants recorded",
    )
    metrics = report["observer"].metrics
    _check(
        metrics.counter_value("channel.sent", channel="veh1") > 0,
        "channel counters recorded",
    )

    manifest = CampaignManifest(
        name="trace-smoke",
        scenario={"kind": "left_turn"},
        comm={
            "sensor_noise": 0.3,
            "faults": [{"kind": "independent_loss", "probability": 0.2}],
        },
        planner={"kind": "constant", "acceleration": 2.0},
        n_sims=4,
        seed=11,
        chunk_size=2,
        config={"max_time": 8.0},
    )
    plain_dir = workdir / "campaign-plain"
    traced_dir = workdir / "campaign-traced"
    CampaignRunner(manifest, plain_dir, n_workers=1).run()
    CampaignRunner(
        manifest, traced_dir, n_workers=1, observer=Observer()
    ).run()
    _check(
        (traced_dir / AGGREGATE_FILE).read_bytes()
        == (plain_dir / AGGREGATE_FILE).read_bytes(),
        "traced campaign aggregate is byte-identical to untraced",
    )
    status = campaign_status(traced_dir)
    _check(
        "chunk_retries" in status and "total_retries" in status,
        "status surfaces retry counts",
    )
    elapsed = status.get("elapsed")
    _check(
        isinstance(elapsed, dict) and elapsed.get("chunks_timed") == 2,
        "status surfaces the elapsed summary",
    )
    _check(
        (traced_dir / METRICS_FILE).exists(),
        "metrics.json sidecar written",
    )


# ---------------------------------------------------------------------------
# Phase 2: disabled-observer overhead gate
# ---------------------------------------------------------------------------
def _micro_batch(observer) -> None:
    scenario = LeftTurnScenario()
    comm = CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        faults=no_disturbance(),
        sensor_bounds=NoiseBounds.uniform_all(0.5),
    )
    engine = SimulationEngine(
        scenario, comm, SimulationConfig(max_time=6.0,
                                         record_trajectories=False)
    )
    factory = make_estimator_factory(
        EstimatorKind.FILTERED, engine, observer=observer
    )
    for seed in range(MICRO_EPISODES):
        engine.run(
            ConstantPlanner(2.0), factory, RngStream(seed), observer=observer
        )


def _best_of(repeats, observer) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = perf_now()
        _micro_batch(observer)
        best = min(best, perf_now() - started)
    return best


def phase_overhead(workdir: Path) -> None:
    print("phase 2: disabled-observer overhead gate")
    _micro_batch(None)  # warm-up: imports, caches, allocator
    baseline = _best_of(REPEATS, None)
    null_path = _best_of(REPEATS, NULL_OBSERVER)
    slower, faster = max(baseline, null_path), min(baseline, null_path)
    budget = faster * (1.0 + TOLERANCE) + FLOOR_SECONDS
    overhead = (slower / faster - 1.0) if faster > 0 else 0.0
    print(
        f"  baseline(default)={baseline:.4f}s  "
        f"explicit-null={null_path:.4f}s  "
        f"spread={overhead:.2%} (tolerance {TOLERANCE:.0%} "
        f"+ {FLOOR_SECONDS}s floor)"
    )
    _check(
        slower <= budget,
        "disabled-observer paths agree within the overhead budget",
    )
    paths = write_bench_documents(
        [
            {
                "nodeid": "scripts/trace_smoke.py::baseline_default",
                "outcome": "passed",
                "duration_seconds": round(baseline, 6),
            },
            {
                "nodeid": "scripts/trace_smoke.py::explicit_null_observer",
                "outcome": "passed",
                "duration_seconds": round(null_path, 6),
            },
        ],
        workdir,
        context={
            "micro_episodes": MICRO_EPISODES,
            "repeats": REPEATS,
            "tolerance": TOLERANCE,
        },
    )
    for path in paths:
        print(f"  recorded {path}")


def main() -> int:
    out_dir = os.environ.get("REPRO_TRACE_SMOKE_DIR")
    if out_dir:
        workdir = Path(out_dir)
        workdir.mkdir(parents=True, exist_ok=True)
        phase_trace(workdir)
        phase_overhead(workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="trace-smoke-") as tmp:
            workdir = Path(tmp)
            phase_trace(workdir)
            phase_overhead(workdir)
    if _failures:
        print(f"trace-smoke: {len(_failures)} failure(s)")
        return 1
    print("trace-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
