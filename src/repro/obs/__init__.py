"""Zero-interference observability: tracing, metrics, profiling.

The ``repro.obs`` package is the dependency-injected observability
subsystem instrumenting the shield, filter, channel, and campaign
layers:

* :mod:`repro.obs.trace` — :class:`Tracer` (scoped spans, instants,
  samples) and the repository's only sanctioned wall-clock readers
  (:func:`perf_now` / :func:`wall_now`);
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters,
  gauges, fixed-bucket histograms);
* :mod:`repro.obs.observer` — the :class:`Observer` façade and the
  near-free :class:`NullObserver` default;
* :mod:`repro.obs.export` — JSONL event stream and Chrome trace-event
  JSON (Perfetto-loadable);
* :mod:`repro.obs.bench_record` — ``BENCH_<area>.json`` benchmark
  trajectories;
* :mod:`repro.obs.expo` — Prometheus text exposition (v0.0.4) over
  snapshots;
* :mod:`repro.obs.recorder` — the ring-buffer flight recorder and the
  ``telemetry.jsonl`` sidecar;
* :mod:`repro.obs.fleet` — exact-sum merging of per-worker metric
  deltas into a fleet registry;
* :mod:`repro.obs.cli` — the ``repro-obs`` command line (trace record /
  summarize / convert / margins; telemetry top / expo).

The contract, enforced by tests and safelint rule SFL011: observation
is write-only from the system's point of view — a traced run produces a
bit-identical :class:`~repro.sim.results.SimulationResult` to an
untraced one.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.expo import CONTENT_TYPE, render_prometheus, render_registry
from repro.obs.fleet import (
    FLEET_PREFIX,
    merge_delta,
    snapshot_delta,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
    metric_key,
    parse_series_key,
    series_sort_key,
)
from repro.obs.recorder import (
    TELEMETRY_FILE,
    FlightRecorder,
    frame_rates,
    read_telemetry,
)
from repro.obs.observer import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
    resolve_observer,
)
from repro.obs.trace import Tracer, perf_now, wall_now

#: Exporter names resolved lazily (PEP 562): ``repro.obs.export`` pulls
#: in the serialization layer, which transitively imports the engine —
#: and the engine (like the channel and the filter) imports
#: ``repro.obs.observer``.  Deferring the exporters keeps this package
#: importable from inside those modules without a cycle.
_EXPORT_NAMES = frozenset(
    {
        "write_jsonl",
        "read_jsonl",
        "to_chrome_trace",
        "write_chrome_trace",
        "validate_chrome_trace",
    }
)


def __getattr__(name: str):
    if name in _EXPORT_NAMES:
        from repro.obs import export

        return getattr(export, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")


__all__ = [
    "Tracer",
    "perf_now",
    "wall_now",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "metric_key",
    "parse_series_key",
    "series_sort_key",
    "histogram_quantile",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "resolve_observer",
    "CONTENT_TYPE",
    "render_prometheus",
    "render_registry",
    "FLEET_PREFIX",
    "snapshot_delta",
    "merge_delta",
    "TELEMETRY_FILE",
    "FlightRecorder",
    "frame_rates",
    "read_telemetry",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]
