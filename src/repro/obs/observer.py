"""The observer façade: what instrumented code is handed.

Every instrumentation site in the engine, planner shield, filter,
channel, and campaign layers takes an *observer* — either the
:class:`NullObserver` singleton (the default: every call is a
constant-time no-op and hot loops additionally guard on
``observer.enabled`` so the disabled path costs one attribute read) or
an :class:`Observer` binding a :class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`.

The load-bearing invariant — **observation must not perturb the
system** — is structural: the façade exposes only *write* operations
(``begin``/``end``/``span``/``instant``/``sample``/``count``/``gauge``/
``observe``); reading recorded values back belongs to the exporters and
the ``repro-obs`` CLI, and any dataflow from an observation value
into planner/dynamics/filter arguments is flagged by safelint rule
SFL011.  Tests enforce the invariant end to end by byte-comparing
traced and untraced :class:`~repro.sim.results.SimulationResult`
serialisations.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "Observer",
    "MetricsOnlyObserver",
    "NullObserver",
    "NULL_OBSERVER",
    "resolve_observer",
    "traced_call",
]


class NullObserver:
    """The disabled observer: every operation is a near-free no-op.

    Instrumentation sites hold a reference to this singleton when no
    observer is injected, and hot loops read :attr:`enabled` once per
    iteration (or once per run) to skip attribute construction
    entirely.  All methods are safe to call anyway — they do nothing.
    """

    __slots__ = ()

    #: Hot-loop guard: ``if observer.enabled:`` skips instrumentation.
    enabled = False

    def begin(self, name: str, **attrs) -> int:
        """No-op; returns an invalid span handle."""
        return -1

    def end(self, handle: int, **attrs) -> None:
        """No-op."""

    def instant(self, name: str, **attrs) -> None:
        """No-op."""

    def sample(self, name: str, value: float, **attrs) -> None:
        """No-op."""

    def count(self, name: str, value: float = 1, **labels) -> None:
        """No-op."""

    def gauge(self, name: str, value: float, **labels) -> None:
        """No-op."""

    def observe(self, name: str, value: float, **labels) -> None:
        """No-op."""

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[int]:
        """No-op context manager."""
        yield -1


#: The shared disabled observer; ``resolve_observer(None)`` returns it.
NULL_OBSERVER = NullObserver()


class Observer:
    """An enabled observer: tracer plus metrics behind one façade.

    Parameters
    ----------
    tracer:
        Event collector; a fresh :class:`~repro.obs.trace.Tracer` by
        default.
    metrics:
        Aggregate collector; a fresh
        :class:`~repro.obs.metrics.MetricsRegistry` by default.
    """

    __slots__ = ("tracer", "metrics")

    enabled = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def begin(self, name: str, **attrs) -> int:
        """Open a span (see :meth:`Tracer.begin`)."""
        return self.tracer.begin(name, **attrs)

    def end(self, handle: int, **attrs) -> None:
        """Close a span (see :meth:`Tracer.end`)."""
        self.tracer.end(handle, **attrs)

    def instant(self, name: str, **attrs) -> None:
        """Record a point event."""
        self.tracer.instant(name, **attrs)

    def sample(self, name: str, value: float, **attrs) -> None:
        """Record one time-series point."""
        self.tracer.sample(name, value, **attrs)

    def span(self, name: str, **attrs):
        """Context-managed span."""
        return self.tracer.span(name, **attrs)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1, **labels) -> None:
        """Accumulate a counter."""
        self.metrics.count(name, value, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge."""
        self.metrics.gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record a histogram observation."""
        self.metrics.observe(name, value, **labels)


class MetricsOnlyObserver(Observer):
    """An enabled observer that aggregates metrics but keeps no events.

    Counters, gauges, and histograms aggregate in O(1) memory, while
    the :class:`Tracer` appends one record per span/instant — unbounded
    over a long run.  Long-lived processes that only need the metric
    side (shard workers streaming deltas to the coordinator) use this
    variant: every tracing operation is a no-op, every metric operation
    aggregates as usual.  Still write-only (SFL011 applies unchanged).
    """

    __slots__ = ()

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(tracer=Tracer(), metrics=metrics)

    def begin(self, name: str, **attrs) -> int:
        """No-op; returns an invalid span handle."""
        return -1

    def end(self, handle: int, **attrs) -> None:
        """No-op."""

    def instant(self, name: str, **attrs) -> None:
        """No-op."""

    def sample(self, name: str, value: float, **attrs) -> None:
        """No-op."""

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[int]:
        """No-op context manager."""
        yield -1


def resolve_observer(observer) -> object:
    """``None`` -> the shared :data:`NULL_OBSERVER`; else pass through.

    The idiom every instrumented constructor/entry point uses::

        self._obs = resolve_observer(observer)
    """
    return NULL_OBSERVER if observer is None else observer


def traced_call(observer, name: str, fn, *args):
    """``fn(*args)`` inside an observer span called ``name``.

    The span closes even when ``fn`` raises.  For call sites that time
    one layer only when an observer was handed to them.
    """
    handle = observer.begin(name)
    try:
        return fn(*args)
    finally:
        observer.end(handle)
