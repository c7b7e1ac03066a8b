"""Prometheus text exposition (v0.0.4) over metrics snapshots.

Renders a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` — or any
structurally identical dict, such as a flight-recorder frame or the
fleet registry the fleet transport of
:class:`~repro.campaign.runner.CampaignRunner` merges — into the
plain-text format every Prometheus-compatible scraper understands
(``repro-obs expo <campaign-dir>/telemetry.jsonl`` renders a campaign's
newest telemetry frame)::

    # TYPE repro_engine_runs counter
    repro_engine_runs 42
    # TYPE repro_campaign_chunk_seconds histogram
    repro_campaign_chunk_seconds_bucket{le="0.0005"} 3
    ...
    repro_campaign_chunk_seconds_bucket{le="+Inf"} 7
    repro_campaign_chunk_seconds_sum 0.0042
    repro_campaign_chunk_seconds_count 7

Design points:

* **Deterministic bytes.** Families render sorted by name, series
  sorted by label items (the snapshot layer already guarantees this
  ordering; the renderer re-sorts defensively), and values format
  through one canonical routine — the same registry content always
  yields the same exposition bytes, which is what the byte-stability
  regression test pins.
* **Read side only.** This module consumes snapshots; it never touches
  a live registry's write API, keeping the write-only observation
  contract (safelint SFL011) intact.
* Dotted metric names (``engine.runs``) sanitise to the Prometheus
  grammar (``engine_runs``) under a configurable namespace prefix.
  Counter names are exposed as-is (no ``_total`` suffix) so they map
  1:1 back to the registry series documented in OBSERVABILITY.md.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from repro.errors import SerializationError
from repro.obs.metrics import metric_key, parse_series_key

__all__ = [
    "CONTENT_TYPE",
    "measurements_from_document",
    "render_prometheus",
    "render_registry",
]

#: The HTTP content type of exposition format v0.0.4, for front-ends
#: that serve the rendered text.
CONTENT_TYPE = "text/plain; version=0.0.4"

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize_name(name: str, namespace: str) -> str:
    """Map a namespaced dotted registry name onto the Prometheus grammar."""
    flat = _INVALID_NAME_CHARS.sub(
        "_", f"{namespace}_{name}" if namespace else name
    )
    if not flat or flat[0].isdigit():
        flat = f"_{flat}"
    return flat


def _sanitize_label(label: str) -> str:
    flat = _INVALID_LABEL_CHARS.sub("_", label)
    if not flat or flat[0].isdigit():
        flat = f"_{flat}"
    return flat


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Canonical number formatting: integral floats print as integers."""
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    parts = ",".join(
        f'{_sanitize_label(k)}="{_escape_label_value(str(v))}"'
        for k, v in labels
    )
    return f"{{{parts}}}"


def _merge_le(
    labels: Tuple[Tuple[str, str], ...], bound: str
) -> Tuple[Tuple[str, str], ...]:
    """Insert the ``le`` bucket label into a sorted label tuple."""
    merged = [pair for pair in labels if pair[0] != "le"]
    merged.append(("le", bound))
    return tuple(sorted(merged))


def _families(
    table: Dict[str, object]
) -> List[Tuple[str, List[Tuple[Tuple[Tuple[str, str], ...], object]]]]:
    """Group a series table by metric name, both levels sorted."""
    grouped: Dict[str, List[Tuple[Tuple[Tuple[str, str], ...], object]]] = {}
    for key, value in table.items():
        name, labels = parse_series_key(key)
        grouped.setdefault(name, []).append((labels, value))
    return [
        (name, sorted(grouped[name], key=lambda item: item[0]))
        for name in sorted(grouped)
    ]


def render_prometheus(
    snapshot: dict,
    namespace: str = "repro",
    help_text: Optional[Dict[str, str]] = None,
) -> str:
    """Render one metrics snapshot as exposition-format text.

    Parameters
    ----------
    snapshot:
        A ``{"counters": ..., "gauges": ..., "histograms": ...}`` dict
        as produced by :meth:`MetricsRegistry.snapshot` (missing
        sections are treated as empty).
    namespace:
        Prefix for every exposed metric name (``""`` disables).
    help_text:
        Optional ``{registry_name: help string}`` map; matched names
        additionally emit a ``# HELP`` line.
    """
    help_text = help_text or {}
    lines: List[str] = []

    def emit_header(name: str, exposed: str, kind: str) -> None:
        doc = help_text.get(name)
        if doc:
            lines.append(f"# HELP {exposed} {doc}")
        lines.append(f"# TYPE {exposed} {kind}")

    for name, series in _families(dict(snapshot.get("counters", {}))):
        exposed = _sanitize_name(name, namespace)
        emit_header(name, exposed, "counter")
        for labels, value in series:
            lines.append(
                f"{exposed}{_render_labels(labels)} "
                f"{_format_value(value)}"
            )

    for name, series in _families(dict(snapshot.get("gauges", {}))):
        exposed = _sanitize_name(name, namespace)
        emit_header(name, exposed, "gauge")
        for labels, value in series:
            lines.append(
                f"{exposed}{_render_labels(labels)} "
                f"{_format_value(value)}"
            )

    for name, series in _families(dict(snapshot.get("histograms", {}))):
        exposed = _sanitize_name(name, namespace)
        emit_header(name, exposed, "histogram")
        for labels, hist in series:
            cumulative = 0
            for bound, bucket_count in zip(
                hist["buckets"], hist["counts"]
            ):
                cumulative += int(bucket_count)
                le = _merge_le(labels, _format_value(bound))
                lines.append(
                    f"{exposed}_bucket{_render_labels(le)} {cumulative}"
                )
            le = _merge_le(labels, "+Inf")
            lines.append(
                f"{exposed}_bucket{_render_labels(le)} "
                f"{int(hist['count'])}"
            )
            rendered = _render_labels(labels)
            lines.append(
                f"{exposed}_sum{rendered} {_format_value(hist['sum'])}"
            )
            lines.append(f"{exposed}_count{rendered} {int(hist['count'])}")

    return "\n".join(lines) + ("\n" if lines else "")


def render_registry(registry, namespace: str = "repro") -> str:
    """Convenience: snapshot a registry and render it."""
    return render_prometheus(registry.snapshot(), namespace=namespace)


def _bench_measurements(document: dict) -> dict:
    counters: Dict[str, float] = {"bench.recorded": 0, "bench.failed": 0}
    gauges: Dict[str, float] = {}
    for entry in document.get("benchmarks", []):
        nodeid = str(entry.get("nodeid", ""))
        test = nodeid.rsplit("::", 1)[-1] or "unknown"
        counters["bench.recorded"] += 1
        if entry.get("outcome") != "passed":
            counters["bench.failed"] += 1
        duration = entry.get("duration_seconds")
        if duration is not None:
            gauges[metric_key("bench.duration_seconds", {"test": test})] = (
                float(duration)
            )
        extra = entry.get("extra")
        if isinstance(extra, dict):
            for name, value in extra.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    gauges[metric_key(f"bench.{name}", {"test": test})] = (
                        float(value)
                    )
    return {"counters": counters, "gauges": gauges, "histograms": {}}


def measurements_from_document(document: dict) -> dict:
    """Normalise a metrics snapshot or ``BENCH_<area>.json`` document.

    Snapshots (and telemetry frames) pass through as their three
    sections; a benchmark document becomes ``bench.recorded`` /
    ``bench.failed`` counters plus one ``bench.<field>{test=...}``
    gauge per duration and numeric extra.  Anything else raises
    :class:`~repro.errors.SerializationError`.
    """
    if not isinstance(document, dict):
        raise SerializationError("document must be a JSON object")
    if "counters" in document or "histograms" in document:
        return {
            "counters": dict(document.get("counters", {})),
            "gauges": dict(document.get("gauges", {})),
            "histograms": dict(document.get("histograms", {})),
        }
    if "benchmarks" in document:
        return _bench_measurements(document)
    raise SerializationError(
        "unrecognised document: expected a metrics snapshot or a "
        "BENCH_<area>.json document"
    )
