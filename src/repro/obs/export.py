"""Trace exporters: JSONL event stream and Chrome trace-event JSON.

Two on-disk shapes:

* **JSONL stream** (:func:`write_jsonl` / :func:`read_jsonl`) — one
  JSON object per line: a schema-versioned header, every tracer event
  in completion order, and a final ``metrics`` record holding the
  registry snapshot.  This is the lossless archival format the
  ``repro-obs`` CLI consumes.
* **Chrome trace-event JSON** (:func:`to_chrome_trace`) — the
  ``traceEvents`` document Perfetto and ``chrome://tracing`` load:
  spans become complete (``"ph": "X"``) events, instants become
  ``"ph": "i"``, and samples become counter (``"ph": "C"``) series.
  Timestamps are microseconds relative to the tracer epoch.

:func:`validate_chrome_trace` checks a document against the subset of
the trace-event schema the importers actually require; the CI
trace-smoke job fails on any problem it reports.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SerializationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.serialization import (
    SCHEMA_VERSION,
    canonical_dumps,
    check_schema_version,
)

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]

#: ``stream`` field of the JSONL header; readers reject other streams.
STREAM_NAME = "reprotrace"

_EVENT_KINDS = frozenset({"span", "instant", "sample"})


def write_jsonl(
    path: Union[str, Path],
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
) -> Path:
    """Write header, events, and a metrics snapshot as JSON lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        canonical_dumps(
            {
                "kind": "header",
                "schema_version": SCHEMA_VERSION,
                "stream": STREAM_NAME,
                "clock": "perf_counter",
            }
        )
    ]
    for event in tracer.events:
        lines.append(canonical_dumps(event))
    if metrics is not None:
        lines.append(
            canonical_dumps({"kind": "metrics", "snapshot": metrics.snapshot()})
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_jsonl(
    path: Union[str, Path],
) -> Tuple[dict, List[dict], Optional[dict]]:
    """Read a JSONL stream back: ``(header, events, metrics_snapshot)``.

    Raises :class:`~repro.errors.SerializationError` on a missing or
    foreign header, an incompatible schema major, or a malformed line.
    """
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no trace stream at {path}")
    header: Optional[dict] = None
    events: List[dict] = []
    snapshot: Optional[dict] = None
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"{path}:{lineno}: not valid JSON ({exc})"
            ) from exc
        if not isinstance(record, dict):
            raise SerializationError(f"{path}:{lineno}: not a JSON object")
        kind = record.get("kind")
        if header is None:
            if kind != "header":
                raise SerializationError(
                    f"{path}: first record must be the header, got {kind!r}"
                )
            if record.get("stream") != STREAM_NAME:
                raise SerializationError(
                    f"{path}: stream {record.get('stream')!r} is not a "
                    f"{STREAM_NAME!r} stream"
                )
            check_schema_version(record, "trace header")
            header = record
        elif kind == "metrics":
            snapshot = record.get("snapshot")
        elif kind in _EVENT_KINDS:
            events.append(record)
        else:
            raise SerializationError(
                f"{path}:{lineno}: unknown record kind {kind!r}"
            )
    if header is None:
        raise SerializationError(f"{path}: empty trace stream")
    return header, events, snapshot


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------
def _finite_args(attrs: dict) -> dict:
    """Attrs with non-finite floats stringified (strict-JSON safe)."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, float) and not math.isfinite(value):
            out[key] = repr(value)
        else:
            out[key] = value
    return out


def to_chrome_trace(
    events: Sequence[dict], process_name: str = "repro"
) -> dict:
    """Events (tracer or JSONL) as a Chrome trace-event document.

    Span events map to complete events (``"ph": "X"``, duration in
    microseconds), instants to ``"ph": "i"`` with thread scope, and
    samples to counter events (``"ph": "C"``) so Perfetto renders them
    as a track per series name.  Non-finite sample values are skipped —
    strict JSON cannot carry them and counter tracks would break.
    """
    trace_events: List[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for event in events:
        kind = event.get("kind")
        name = str(event.get("name", ""))
        ts_us = float(event.get("ts", 0.0)) * 1e6
        attrs = _finite_args(dict(event.get("attrs", {})))
        if kind == "span":
            trace_events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ts": ts_us,
                    "dur": float(event.get("dur", 0.0)) * 1e6,
                    "args": attrs,
                }
            )
        elif kind == "instant":
            trace_events.append(
                {
                    "ph": "i",
                    "pid": 0,
                    "tid": 0,
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ts": ts_us,
                    "s": "t",
                    "args": attrs,
                }
            )
        elif kind == "sample":
            value = float(event.get("value", 0.0))
            if not math.isfinite(value):
                continue
            trace_events.append(
                {
                    "ph": "C",
                    "pid": 0,
                    "tid": 0,
                    "name": name,
                    "ts": ts_us,
                    "args": {"value": value},
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, Path],
    events: Sequence[dict],
    process_name: str = "repro",
) -> Path:
    """Write :func:`to_chrome_trace` output as strict JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = to_chrome_trace(events, process_name=process_name)
    path.write_text(
        json.dumps(document, allow_nan=False, indent=1), encoding="utf-8"
    )
    return path


_REQUIRED_BY_PHASE: Dict[str, Tuple[str, ...]] = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid", "s"),
    "C": ("name", "ts", "pid", "args"),
    "M": ("name", "pid"),
}


def validate_chrome_trace(document: object) -> List[str]:
    """Problems that would make Perfetto/chrome://tracing reject this.

    Returns an empty list for a loadable document.  Checked: the
    ``traceEvents`` array exists, every event carries a known phase
    with that phase's required fields, numeric fields are finite
    numbers, and complete events have non-negative durations.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["trace document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not an array"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{i}] is not an object")
            continue
        phase = event.get("ph")
        required = _REQUIRED_BY_PHASE.get(phase) if isinstance(phase, str) else None
        if required is None:
            problems.append(f"traceEvents[{i}] has unknown phase {phase!r}")
            continue
        for field in required:
            if field not in event:
                problems.append(
                    f"traceEvents[{i}] ({phase}) is missing {field!r}"
                )
        for field in ("ts", "dur"):
            if field in event:
                value = event[field]
                if not isinstance(value, (int, float)) or not math.isfinite(
                    float(value)
                ):
                    problems.append(
                        f"traceEvents[{i}].{field} is not a finite number"
                    )
        if phase == "X":
            dur = event.get("dur")
            if isinstance(dur, (int, float)) and float(dur) < 0.0:
                problems.append(f"traceEvents[{i}].dur is negative")
    return problems
