"""The tracer and the repository's only sanctioned wall-clock reader.

Every other module under ``repro`` is banned from reading the host
clock (safelint rule SFL004: simulated time is integer step arithmetic
via :class:`repro.sim.clock.MultiRateClock`).  Observability, however,
*is about* wall time — span durations, fsync latency, chunk elapsed
time — so this module holds a scoped, documented exemption from that
rule (see ``EXEMPT_MODULES`` in
:mod:`repro.lint.rules.wall_clock`): :func:`perf_now` and
:func:`wall_now` are the façade through which the rest of the codebase
obtains wall-clock readings, and rule SFL011 (observation-effect
guard) in turn forbids those readings from flowing into planner,
dynamics, or filter arguments.

:class:`Tracer` records three event kinds into an in-memory list:

``span``
    A named duration with begin/end timestamps (``ts`` + ``dur``
    seconds relative to the tracer's epoch) — per-step and per-stage
    engine timing, chunk wall time.
``instant``
    A point event — a shield switch, a filter replay, a watchdog trip.
``sample``
    A named numeric time series point (``value``) — the safety-margin
    series, fused interval widths.

Attributes attached to an event must be JSON-serialisable scalars; the
exporters (:mod:`repro.obs.export`) turn the list into a JSONL stream
or a Chrome trace-event document loadable in Perfetto.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "perf_now", "wall_now"]


def perf_now() -> float:
    """Monotonic high-resolution timestamp for durations.

    Units: -> [s]
    """
    return time.perf_counter()


def wall_now() -> float:
    """Absolute wall-clock timestamp (epoch seconds) for report stamps.

    Units: -> [s]
    """
    return time.time()


class Tracer:
    """Collects spans, instants, and samples with ``perf_counter`` timing.

    Parameters
    ----------
    clock:
        Injectable timestamp source (tests pass a fake clock so span
        durations are asserted exactly); defaults to :func:`perf_now`.

    Notes
    -----
    Handles returned by :meth:`begin` are opaque integers; spans may
    close out of order (the engine's step span wraps the stage spans,
    but an early ``break`` can close them in any sequence).  The tracer
    is deliberately write-only from the instrumented code's point of
    view: nothing in :mod:`repro.sim`, :mod:`repro.core` or
    :mod:`repro.filtering` may read timing values back into control
    decisions (rule SFL011).
    """

    def __init__(self, clock: Callable[[], float] = perf_now) -> None:
        self._clock = clock
        self._epoch = clock()
        self._events: List[dict] = []
        self._open: Dict[int, Tuple[str, float, dict]] = {}
        self._next_handle = 0

    @property
    def events(self) -> List[dict]:
        """Completed events, in completion order (live list)."""
        return self._events

    @property
    def n_open(self) -> int:
        """Spans begun but not yet ended."""
        return len(self._open)

    @property
    def epoch(self) -> float:
        """Clock reading the relative timestamps are measured from.

        Units: -> [s]
        """
        return self._epoch

    def clear(self) -> None:
        """Drop all completed events (open spans are kept)."""
        self._events.clear()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, name: str, **attrs) -> int:
        """Open a span; returns the handle to pass to :meth:`end`."""
        handle = self._next_handle
        self._next_handle += 1
        self._open[handle] = (name, self._clock(), attrs)
        return handle

    def end(self, handle: int, **attrs) -> None:
        """Close the span ``handle``; extra attrs merge into the event.

        Ending an unknown (or already-ended) handle is a silent no-op:
        instrumentation must never be able to crash the system it
        observes.
        """
        entry = self._open.pop(handle, None)
        if entry is None:
            return
        name, started, begin_attrs = entry
        now = self._clock()
        merged = dict(begin_attrs)
        merged.update(attrs)
        self._events.append(
            {
                "kind": "span",
                "name": name,
                "ts": started - self._epoch,
                "dur": max(now - started, 0.0),
                "attrs": merged,
            }
        )

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[int]:
        """Context-managed :meth:`begin`/:meth:`end` pair."""
        handle = self.begin(name, **attrs)
        try:
            yield handle
        finally:
            self.end(handle)

    # ------------------------------------------------------------------
    # Point events
    # ------------------------------------------------------------------
    def instant(self, name: str, **attrs) -> None:
        """Record a point event."""
        self._events.append(
            {
                "kind": "instant",
                "name": name,
                "ts": self._clock() - self._epoch,
                "attrs": attrs,
            }
        )

    def sample(self, name: str, value: float, **attrs) -> None:
        """Record one point of a named numeric time series."""
        self._events.append(
            {
                "kind": "sample",
                "name": name,
                "ts": self._clock() - self._epoch,
                "value": float(value),
                "attrs": attrs,
            }
        )

    # ------------------------------------------------------------------
    # Introspection for the exporters
    # ------------------------------------------------------------------
    def events_named(self, name: str) -> List[dict]:
        """Completed events with the given name, in order."""
        return [event for event in self._events if event["name"] == name]
