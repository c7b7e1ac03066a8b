"""The ``repro-obs top`` terminal dashboard renderer.

Turns a sequence of flight-recorder frames (see
:mod:`repro.obs.recorder`) into one screenful of fleet telemetry using
the repo's own terminal charts (:mod:`repro.analysis.text_plot`) — no
plotting dependency, works over ssh:

* throughput sparklines (sims/sec, chunks/sec, channel drops/sec)
  from per-frame counter deltas;
* shield engagements;
* per-worker liveness from the ``fleet.worker_up`` gauges.

Pure rendering: frames in, text out.  The CLI owns reading sidecars.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.text_plot import sparkline
from repro.obs.metrics import parse_series_key
from repro.obs.recorder import frame_rates

__all__ = ["render_dashboard"]

#: (label, counter names tried in order) rows of the throughput panel.
_RATE_ROWS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "sims/s",
        ("fleet.engine.runs", "engine.runs", "campaign.sims_completed"),
    ),
    (
        "chunks/s",
        ("fleet.worker.chunks_completed", "campaign.chunks_completed"),
    ),
    ("drops/s", ("channel.dropped", "fleet.channel.dropped")),
)

def _counter_total(frame: dict, name: str) -> Optional[float]:
    """Sum every series of counter ``name`` across its label sets."""
    total = 0.0
    found = False
    for key, value in frame.get("counters", {}).items():
        base, labels = parse_series_key(key)
        if base == name and not any(k == "worker" for k, _ in labels):
            total += float(value)
            found = True
    return total if found else None


def _rate_series(frames: Sequence[dict], name: str) -> List[float]:
    """Per-frame rates of one counter (summed over labels)."""
    rates: List[float] = []
    for older, newer in zip(frames, frames[1:]):
        pair_rates = frame_rates(older, newer)
        total = 0.0
        for key, rate in pair_rates.items():
            base, labels = parse_series_key(key)
            if base == name and not any(k == "worker" for k, _ in labels):
                total += rate
        rates.append(total)
    return rates


def _pick_counter(frame: dict, names: Sequence[str]) -> Optional[str]:
    for name in names:
        if _counter_total(frame, name) is not None:
            return name
    return None


def _worker_liveness(frame: dict) -> List[Tuple[str, bool]]:
    workers: List[Tuple[str, bool]] = []
    for key, value in frame.get("gauges", {}).items():
        base, labels = parse_series_key(key)
        if base != "fleet.worker_up":
            continue
        label_map = dict(labels)
        worker = label_map.get("worker")
        if worker is not None:
            workers.append((worker, float(value) > 0.5))
    return sorted(workers)


def _fmt(value: Optional[float], unit: str = "") -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}{unit}"
    return f"{value:.2f}{unit}"


def render_dashboard(
    frames: Sequence[dict], title: str = "repro fleet telemetry"
) -> str:
    """Render one dashboard screen from recorder frames (oldest first)."""
    lines: List[str] = [title, "=" * len(title)]
    if not frames:
        lines.append("(no telemetry frames yet)")
        return "\n".join(lines)
    newest = frames[-1]
    window = (
        float(frames[-1]["t"]) - float(frames[0]["t"])
        if len(frames) > 1
        else 0.0
    )
    lines.append(
        f"frames: {len(frames)}   window: {window:.1f}s   "
        f"wall: {newest.get('wall', 0.0):.0f}"
    )

    lines.append("")
    lines.append("throughput")
    for label, candidates in _RATE_ROWS:
        name = _pick_counter(newest, candidates)
        if name is None:
            continue
        rates = _rate_series(frames, name)
        current = rates[-1] if rates else 0.0
        total = _counter_total(newest, name) or 0.0
        lines.append(
            f"  {label:<12} {_fmt(current, '/s'):>12}  "
            f"total {_fmt(total):>12}  {sparkline(rates[-40:])}"
        )

    shield = _counter_total(newest, "shield.engagements")
    if shield is None:
        shield = _counter_total(newest, "fleet.shield.engagements")
    if shield is not None:
        lines.append("")
        lines.append(f"shield engagements: {shield:.0f}")

    workers = _worker_liveness(newest)
    if workers:
        lines.append("")
        lines.append("workers")
        for worker, up in workers:
            done = _counter_worker_done(newest, worker)
            state = "up  " if up else "DOWN"
            done_text = "" if done is None else f"  done={done:.0f}"
            lines.append(f"  {worker:<12} {state}{done_text}")

    return "\n".join(lines)


def _counter_worker_done(frame: dict, worker: str) -> Optional[float]:
    """Chunks completed by one worker, from its labelled fleet series."""
    for key, value in frame.get("counters", {}).items():
        base, labels = parse_series_key(key)
        if base != "fleet.worker.chunks_completed":
            continue
        if dict(labels).get("worker") == worker:
            return float(value)
    return None
