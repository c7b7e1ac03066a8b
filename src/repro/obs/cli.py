"""``repro-obs``: the observability command line (``python -m repro.obs``).

Traces: ``record`` runs one fully traced closed-loop episode (compound
planner + information filter + faulty channels) and writes the JSONL
event stream and the Chrome trace-event JSON; ``summarize`` prints
per-name event counts, span timings and metric totals of a stream
(``--json`` for a document); ``convert`` turns a stream into Chrome
trace-event JSON (Perfetto-loadable); ``margins`` charts the shield
engage/release timeline and the safety-margin series.

Telemetry: ``top`` is a terminal dashboard (see :mod:`repro.obs.top`)
over a campaign telemetry sidecar (``--dir``/``--file``); ``expo``
prints a document (sidecar, metrics snapshot or ``BENCH_<area>.json``)
as Prometheus text exposition v0.0.4.

Exit codes: 0 success; 2 a bad stream, document or flag value.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.comm.faults import (
    Duplication,
    IndependentLoss,
    NoFault,
    UniformJitter,
    compose,
)
from repro.core.compound import CompoundPlanner
from repro.core.monitor import RuntimeMonitor
from repro.errors import ReproError, SerializationError
from repro.obs.export import (
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.expo import measurements_from_document, render_prometheus
from repro.obs.observer import Observer
from repro.obs.recorder import TELEMETRY_FILE, read_telemetry
from repro.obs.top import render_dashboard
from repro.planners.constant import FullThrottlePlanner
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.runner import EstimatorKind, make_estimator_factory
from repro.utils.rng import RngStream
from repro.utils.validation import check_flag_count, check_flag_positive

__all__ = [
    "main",
    "build_parser",
    "record_trace",
    "EXIT_OK",
    "EXIT_ERROR",
]

#: Success.
EXIT_OK = 0
#: Bad stream, document or flag value.
EXIT_ERROR = 2

#: ANSI clear-screen + home, used by ``top --follow``.
_CLEAR = "\x1b[2J\x1b[H"

#: Channel fault presets for ``record`` — the "storm" composition
#: exercises every per-stage counter (drop, jitter/reorder, duplicate).
FAULT_PRESETS = ("none", "storm")

SCENARIOS = ("left_turn", "car_following")


def _scenario(name: str):
    if name == "left_turn":
        from repro.scenarios.left_turn.scenario import LeftTurnScenario

        return LeftTurnScenario()
    if name == "car_following":
        from repro.scenarios.car_following import CarFollowingScenario

        return CarFollowingScenario()
    raise ReproError(f"unknown scenario {name!r}; pick from {SCENARIOS}")


def _comm(faults: str) -> CommSetup:
    if faults not in FAULT_PRESETS:
        raise ReproError(
            f"unknown fault preset {faults!r}; pick from {FAULT_PRESETS}"
        )
    fault_model = (
        compose(
            IndependentLoss(0.2),
            UniformJitter(0.0, 0.25),
            Duplication(0.2, lag=0.05),
        )
        if faults == "storm"
        else NoFault()
    )
    return CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        faults=fault_model,
        sensor_bounds=NoiseBounds.uniform_all(0.5),
    )


def record_trace(
    out_dir,
    scenario: str = "left_turn",
    faults: str = "storm",
    seed: int = 1,
    max_time: float = 8.0,
) -> dict:
    """Run one traced episode; write ``trace.jsonl`` + ``trace.json``.

    The episode wires the full instrumented stack: compound planner
    (shield events), information filters (replay/watchdog events),
    channels (per-stage fault counters), and the engine's per-step
    spans.  Returns a small result dict with the output paths, the
    episode outcome, and any Chrome-trace validation problems (empty
    for a loadable document).
    """
    out_dir = Path(out_dir)
    scn = _scenario(scenario)
    comm = _comm(faults)
    engine = SimulationEngine(
        scn, comm, SimulationConfig(max_time=max_time)
    )
    observer = Observer()
    planner = CompoundPlanner(
        nn_planner=FullThrottlePlanner(scn.ego_limits),
        emergency_planner=scn.emergency_planner(),
        monitor=RuntimeMonitor(scn.safety_model()),
        limits=scn.ego_limits,
        observer=observer,
    )
    factory = make_estimator_factory(
        EstimatorKind.FILTERED, engine, observer=observer
    )
    result = engine.run(planner, factory, RngStream(seed), observer=observer)

    jsonl_path = write_jsonl(
        out_dir / "trace.jsonl", observer.tracer, observer.metrics
    )
    chrome_path = write_chrome_trace(
        out_dir / "trace.json",
        observer.tracer.events,
        process_name=f"repro:{scenario}",
    )
    problems = validate_chrome_trace(
        json.loads(chrome_path.read_text(encoding="utf-8"))
    )
    return {
        "jsonl": jsonl_path,
        "chrome": chrome_path,
        "outcome": result.outcome.value,
        "n_events": len(observer.tracer.events),
        "problems": problems,
        "observer": observer,
        "result": result,
    }


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------
def _span_stats(events: List[dict]) -> List[tuple]:
    """``(name, count, total, mean, max)`` rows over span events."""
    by_name: dict = {}
    for event in events:
        if event.get("kind") != "span":
            continue
        durations = by_name.setdefault(event["name"], [])
        durations.append(float(event.get("dur", 0.0)))
    rows = []
    for name in sorted(by_name):
        durations = by_name[name]
        total = sum(durations)
        rows.append(
            (name, len(durations), total, total / len(durations), max(durations))
        )
    return rows


def _event_counts(events: List[dict]) -> List[tuple]:
    counts: dict = {}
    for event in events:
        key = (event.get("kind", "?"), event.get("name", "?"))
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def _summary_document(
    stream: str, header: dict, events: List[dict], snapshot: dict
) -> dict:
    """The ``summarize --json`` payload: counts, spans, metric totals."""
    return {
        "stream": str(stream),
        "schema_version": header.get("schema_version"),
        "n_events": len(events),
        "event_counts": [
            {"kind": kind, "name": name, "count": count}
            for (kind, name), count in _event_counts(events)
        ],
        "spans": [
            {
                "name": name,
                "count": count,
                "total_seconds": total,
                "mean_seconds": mean,
                "max_seconds": peak,
            }
            for name, count, total, mean, peak in _span_stats(events)
        ],
        "counters": dict(snapshot.get("counters", {})) if snapshot else {},
        "gauges": dict(snapshot.get("gauges", {})) if snapshot else {},
        "histograms": dict(snapshot.get("histograms", {})) if snapshot else {},
    }


def _cmd_summarize(args: argparse.Namespace) -> int:
    header, events, snapshot = read_jsonl(args.stream)
    if args.json:
        document = _summary_document(args.stream, header, events, snapshot)
        print(json.dumps(document, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"stream: {args.stream} (schema {header.get('schema_version')})")
    print(f"events: {len(events)}")
    print()
    print("event counts")
    for (kind, name), count in _event_counts(events):
        print(f"  {kind:8s} {name:32s} {count:8d}")
    rows = _span_stats(events)
    if rows:
        print()
        print("span timing (seconds)")
        print(f"  {'name':32s} {'count':>8s} {'total':>10s} {'mean':>10s} {'max':>10s}")
        for name, count, total, mean, peak in rows:
            print(
                f"  {name:32s} {count:8d} {total:10.4f} {mean:10.6f} {peak:10.6f}"
            )
    if snapshot:
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        histograms = snapshot.get("histograms", {})
        if counters:
            print()
            print("counters")
            for key in sorted(counters):
                print(f"  {key:48s} {counters[key]:12g}")
        if gauges:
            print()
            print("gauges")
            for key in sorted(gauges):
                print(f"  {key:48s} {gauges[key]:12g}")
        if histograms:
            print()
            print("histograms")
            for key in sorted(histograms):
                h = histograms[key]
                print(
                    f"  {key:48s} n={h.get('count', 0):g} "
                    f"sum={h.get('sum', 0.0):g} "
                    f"min={h.get('min', 0.0):g} max={h.get('max', 0.0):g}"
                )
    return EXIT_OK


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------
def _cmd_convert(args: argparse.Namespace) -> int:
    _, events, _ = read_jsonl(args.stream)
    path = write_chrome_trace(args.out, events)
    problems = validate_chrome_trace(
        json.loads(path.read_text(encoding="utf-8"))
    )
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    print(f"wrote {path} ({len(events)} events)")
    return EXIT_OK if not problems else EXIT_ERROR


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------
def _cmd_margins(args: argparse.Namespace) -> int:
    from repro.analysis.text_plot import line_chart

    _, events, _ = read_jsonl(args.stream)
    switches = [
        e
        for e in events
        if e.get("kind") == "instant"
        and e.get("name") in ("shield.engage", "shield.release")
    ]
    print(f"shield switches: {len(switches)}")
    for event in switches:
        attrs = event.get("attrs", {})
        t = attrs.get("t", event.get("ts", 0.0))
        label = event["name"].split(".", 1)[1]
        cause = attrs.get("cause")
        suffix = f"  cause={cause}" if cause else ""
        print(f"  t={float(t):7.2f}s  {label:8s}{suffix}")

    samples = [
        e
        for e in events
        if e.get("kind") == "sample" and e.get("name") == "shield.margin"
    ]
    if not samples:
        print("no shield.margin samples in this stream")
        return EXIT_OK
    xs = [float(e.get("attrs", {}).get("t", e.get("ts", 0.0))) for e in samples]
    ys = [float(e["value"]) for e in samples]
    print()
    print(
        line_chart(
            xs,
            {"margin": ys},
            width=args.width,
            height=args.height,
            title="safety margin over simulated time",
            y_label="slack [m]",
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------
def _cmd_record(args: argparse.Namespace) -> int:
    report = record_trace(
        args.out_dir,
        scenario=args.scenario,
        faults=args.faults,
        seed=args.seed,
        max_time=args.max_time,
    )
    print(
        f"recorded {report['n_events']} events "
        f"(outcome: {report['outcome']})"
    )
    print(f"  jsonl:  {report['jsonl']}")
    print(f"  chrome: {report['chrome']}")
    for problem in report["problems"]:
        print(f"warning: {problem}", file=sys.stderr)
    return EXIT_OK if not report["problems"] else EXIT_ERROR


def _load_document(path: Path) -> dict:
    """Read one JSON document, or the newest frame of a JSONL sidecar."""
    if path.suffix == ".jsonl":
        frames = read_telemetry(path)
        if not frames:
            raise SerializationError(f"no telemetry frames in {path}")
        return frames[-1]
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SerializationError(
            f"cannot read document {path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"document {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(raw, dict):
        raise SerializationError(f"document {path} must hold a JSON object")
    return raw


def _telemetry_path(args: argparse.Namespace) -> Path:
    if args.file:
        return Path(args.file)
    return Path(args.dir) / TELEMETRY_FILE


def _cmd_top(args: argparse.Namespace) -> int:
    check_flag_count(args.window, "--window", minimum=1)
    check_flag_positive(args.interval, "--interval")

    def refresh() -> List[dict]:
        return read_telemetry(_telemetry_path(args))[-args.window :]

    if not args.follow:
        print(render_dashboard(refresh()))
        return EXIT_OK
    try:
        while True:
            screen = render_dashboard(refresh())
            sys.stdout.write(_CLEAR + screen + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return EXIT_OK


def _cmd_expo(args: argparse.Namespace) -> int:
    document = _load_document(Path(args.document))
    measurements = measurements_from_document(document)
    sys.stdout.write(
        render_prometheus(measurements, namespace=args.namespace)
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Observability: record and inspect traces; telemetry "
            "dashboard and exposition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser(
        "record", help="run one traced episode and write the streams"
    )
    p_record.add_argument("out_dir", help="directory for trace.jsonl/trace.json")
    p_record.add_argument(
        "--scenario", choices=SCENARIOS, default="left_turn"
    )
    p_record.add_argument(
        "--faults", choices=FAULT_PRESETS, default="storm"
    )
    p_record.add_argument("--seed", type=int, default=1)
    p_record.add_argument(
        "--max-time", type=float, default=8.0, dest="max_time"
    )
    p_record.set_defaults(func=_cmd_record)

    p_sum = sub.add_parser("summarize", help="event counts and span timing")
    p_sum.add_argument("stream", help="trace.jsonl path")
    p_sum.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_sum.set_defaults(func=_cmd_summarize)

    p_conv = sub.add_parser(
        "convert", help="JSONL stream -> Chrome trace-event JSON"
    )
    p_conv.add_argument("stream", help="trace.jsonl path")
    p_conv.add_argument("out", help="output .json path")
    p_conv.set_defaults(func=_cmd_convert)

    p_margins = sub.add_parser(
        "margins", help="shield-switch timeline + safety-margin chart"
    )
    p_margins.add_argument("stream", help="trace.jsonl path")
    p_margins.add_argument("--width", type=int, default=60)
    p_margins.add_argument("--height", type=int, default=14)
    p_margins.set_defaults(func=_cmd_margins)

    top = sub.add_parser(
        "top", help="terminal dashboard over telemetry frames"
    )
    source = top.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dir", help="campaign/shard directory holding telemetry.jsonl"
    )
    source.add_argument("--file", help="telemetry sidecar path")
    top.add_argument(
        "--follow",
        action="store_true",
        help="refresh in place until interrupted",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period, seconds (default 1.0)",
    )
    top.add_argument(
        "--window",
        type=int,
        default=120,
        help="frames kept for the rate sparklines (default 120)",
    )
    top.set_defaults(func=_cmd_top)

    expo = sub.add_parser(
        "expo", help="render a document as Prometheus text exposition"
    )
    expo.add_argument(
        "document",
        help="telemetry .jsonl (newest frame), snapshot/bench .json",
    )
    expo.add_argument(
        "--namespace",
        default="repro",
        help="metric name prefix (default: repro)",
    )
    expo.set_defaults(func=_cmd_expo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-obs: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
