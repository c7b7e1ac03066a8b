"""Fleet aggregation: merging per-worker metric deltas exactly.

Shard workers piggyback metric *deltas* — the change in their local
:class:`~repro.obs.metrics.MetricsRegistry` since the previous report —
on the retry/completed/error events they already stream to the
coordinator.  The coordinator folds every delta into one fleet-wide
registry under a ``fleet.`` prefix with **exact-sum semantics**:

* each counter delta adds into the unlabelled fleet total *and* into a
  per-worker labelled series, so
  ``fleet.x == sum_w fleet.x{worker=w}`` holds by construction (the
  acceptance test pins this identity across >= 3 real workers);
* histogram deltas merge bucket-by-bucket via
  :meth:`MetricsRegistry.absorb_histogram`;
* gauges are last-value-wins per worker (a fleet "total" of gauges is
  meaningless, so they only exist labelled).

Counter resets (a worker whose registry restarted) surface as negative
deltas and are dropped, keeping every fleet total monotonic.
Everything here runs on the coordinator's read/merge
side — worker registries themselves are never read back into control
flow (safelint SFL011).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry, parse_series_key

__all__ = [
    "FLEET_PREFIX",
    "empty_snapshot",
    "snapshot_delta",
    "delta_is_empty",
    "merge_delta",
]

#: Series-name prefix every merged worker metric gains in the fleet
#: registry (``engine.runs`` -> ``fleet.engine.runs``).
FLEET_PREFIX = "fleet."


def empty_snapshot() -> dict:
    """A structurally valid snapshot with no series."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def snapshot_delta(previous: dict, current: dict) -> dict:
    """The change from one registry snapshot to a later one.

    Counters difference key-by-key (zero-change series are omitted);
    gauges carry their current values (last-wins); histograms diff
    bucket counts/count/sum and keep the *cumulative* min/max, whose
    repeated absorption is idempotent.  The result is small enough to
    piggyback on a worker event line.
    """
    delta = empty_snapshot()
    prev_counters = previous.get("counters", {})
    for key, value in current.get("counters", {}).items():
        change = value - prev_counters.get(key, 0)
        if change:
            delta["counters"][key] = change
    delta["gauges"] = dict(current.get("gauges", {}))
    prev_hists = previous.get("histograms", {})
    for key, hist in current.get("histograms", {}).items():
        before = prev_hists.get(key)
        if before is None:
            delta["histograms"][key] = dict(hist)
            continue
        change = int(hist["count"]) - int(before["count"])
        if not change:
            continue
        delta["histograms"][key] = {
            "buckets": list(hist["buckets"]),
            "counts": [
                int(now) - int(then)
                for now, then in zip(hist["counts"], before["counts"])
            ],
            "count": change,
            "sum": float(hist["sum"]) - float(before["sum"]),
            "min": hist.get("min"),
            "max": hist.get("max"),
        }
    return delta


def delta_is_empty(delta: dict) -> bool:
    """True when a delta carries no counters, gauges, or histograms."""
    return not (
        delta.get("counters") or delta.get("gauges") or delta.get("histograms")
    )


def _labels_dict(labels) -> Dict[str, str]:
    return {k: v for k, v in labels}


def merge_delta(
    registry: MetricsRegistry,
    delta: dict,
    worker: Optional[str] = None,
    prefix: str = FLEET_PREFIX,
) -> None:
    """Fold one worker delta into the fleet registry.

    When ``worker`` is given, counters additionally accumulate into a
    ``worker=<id>``-labelled series and gauges are stored *only* under
    that label (per-worker last-value).  Histograms merge into the
    unlabelled fleet series via exact bucket sums.
    """
    for key, value in delta.get("counters", {}).items():
        name, labels = parse_series_key(key)
        base = _labels_dict(labels)
        change = float(value)
        if change < 0:
            # A negative delta means the upstream registry reset
            # (counters are monotonic); dropping it keeps the fleet
            # totals monotonic too, the property exact-sum relies on.
            continue
        registry.count(prefix + name, change, **base)
        if worker is not None:
            registry.count(prefix + name, change, worker=worker, **base)
    for key, value in delta.get("gauges", {}).items():
        name, labels = parse_series_key(key)
        base = _labels_dict(labels)
        if worker is not None:
            base["worker"] = worker
        registry.gauge(prefix + name, float(value), **base)
    for key, hist in delta.get("histograms", {}).items():
        name, labels = parse_series_key(key)
        registry.absorb_histogram(prefix + name, hist, **_labels_dict(labels))
