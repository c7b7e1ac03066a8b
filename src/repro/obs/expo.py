"""Prometheus text exposition (v0.0.4) over metrics snapshots.

Renders a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` — or any
structurally identical dict, such as a flight-recorder frame or the
fleet registry the fleet transport of
:class:`~repro.campaign.runner.CampaignRunner` merges — into the
plain-text format every Prometheus-compatible scraper understands
(``repro-obs expo <campaign-dir>/telemetry.jsonl`` renders a campaign's
newest telemetry frame)::

    # TYPE repro_serve_offered counter
    repro_serve_offered 42
    # TYPE repro_serve_decision_seconds histogram
    repro_serve_decision_seconds_bucket{le="0.0005"} 3
    ...
    repro_serve_decision_seconds_bucket{le="+Inf"} 7
    repro_serve_decision_seconds_sum 0.0042
    repro_serve_decision_seconds_count 7

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
* Dotted metric names (``serve.offered``) sanitise to the Prometheus
  grammar (``serve_offered``) under a configurable namespace prefix.
  Counter names are exposed as-is (no ``_total`` suffix) so they map
  1:1 back to the registry series documented in OBSERVABILITY.md.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import parse_series_key

__all__ = [
    "CONTENT_TYPE",
    "render_prometheus",
    "render_registry",
]

#: The HTTP content type of exposition format v0.0.4 — carried in the
#: decision server's ``metrics`` probe reply so HTTP front-ends can
#: forward it verbatim.
CONTENT_TYPE = "text/plain; version=0.0.4"

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize_name(name: str, namespace: str) -> str:
    """Map a dotted registry name onto the Prometheus metric grammar."""
    flat = _INVALID_NAME_CHARS.sub("_", name)
    if namespace:
        flat = f"{namespace}_{flat}"
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
