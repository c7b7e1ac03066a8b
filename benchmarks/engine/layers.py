"""Per-episode timing and per-layer spans, measured from outside ``repro``.

Everything here works by wrapping public entry points on their classes
for the duration of a measurement and restoring the original attributes
afterwards; nothing under ``src/`` is modified or configured.

* :class:`EpisodeLog` collects, for every ``SimulationEngine.run`` call,
  its wall time and its result.  This wrapper is installed on untraced
  runs too: it costs two clock reads per episode.
* :class:`SpanRecorder` keeps spans in memory (name, start, end, parent
  by stack, episode id).  On a traced run it receives both the engine's
  own stage spans, as the observer handed to ``SimulationEngine.run``,
  and the spans of the layer wrappers listed in :data:`LAYER_METHODS`,
  so every span nests in one tree.  Filters and planners get no
  observer, so their own telemetry adds no cost.
* :func:`aggregate` turns the spans into total and self time per name.
  A span's self time is its duration minus the durations of its direct
  children.  The recorder's own cost per span, measured by
  :func:`calibrate` as a profiler measures its bias, is subtracted, so
  layer times approximate the untraced program; the wrapper functions'
  extra call layer is not, and shows in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.comm.channel import Channel
from repro.core.monitor import RuntimeMonitor
from repro.dynamics.vehicle import VehicleModel
from repro.filtering.info_filter import InformationFilter, RawEstimator
from repro.obs.observer import NullObserver
from repro.planners.nn_planner import NNPlanner
from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
from repro.sensing.sensor import Sensor
from repro.sim.engine import SimulationEngine
from repro.sim.results import Outcome, SimulationResult

__all__ = [
    "ENGINE_STAGES",
    "LAYER_METHODS",
    "SPAN_NAMES",
    "Bias",
    "EpisodeLog",
    "LayerTotals",
    "ReplayCounter",
    "SpanRecorder",
    "aggregate",
    "calibrate",
    "instrumented",
    "stage_coverage",
    "write_chrome_trace",
]

#: Stage spans the engine itself emits inside each ``engine.step``.
ENGINE_STAGES = (
    "engine.profile",
    "engine.sense",
    "engine.comm",
    "engine.estimate",
    "engine.plan",
    "engine.act",
)

#: Public methods timed on a traced run: (span name, class, attribute).
LAYER_METHODS: Tuple[Tuple[str, type, str], ...] = (
    ("filter.sensor", InformationFilter, "on_sensor_reading"),
    ("filter.sensor", RawEstimator, "on_sensor_reading"),
    ("filter.replay", InformationFilter, "on_message"),
    ("filter.replay", RawEstimator, "on_message"),
    ("filter.estimate", InformationFilter, "estimate"),
    ("filter.estimate", RawEstimator, "estimate"),
    ("shield.monitor", RuntimeMonitor, "evaluate"),
    ("shield.nn", NNPlanner, "plan"),
    ("shield.emergency", LeftTurnEmergencyPlanner, "plan"),
    ("comm.send", Channel, "send"),
    ("comm.receive", Channel, "receive"),
    ("sensing.measure", Sensor, "measure"),
    ("dynamics.step", VehicleModel, "step"),
)

#: Every span a traced run reports, outermost first.  ``episode`` is the
#: benchmark's wrapper around ``SimulationEngine.run``; it differs from
#: the engine's own ``engine.run`` span by the per-episode construction
#: of channels, sensors and estimators that precedes the step loop.
SPAN_NAMES = (
    "episode",
    "engine.run",
    "engine.step",
    *ENGINE_STAGES,
    "filter.sensor",
    "filter.replay",
    "filter.estimate",
    "shield.monitor",
    "shield.nn",
    "shield.emergency",
    "comm.send",
    "comm.receive",
    "sensing.measure",
    "dynamics.step",
)


@dataclass
class EpisodeLog:
    """Wall time and result of every episode run while installed."""

    durations: List[float] = field(default_factory=list)
    results: List[SimulationResult] = field(default_factory=list)
    raised: int = 0

    def clear(self) -> None:
        """Forget everything recorded so far."""
        self.durations.clear()
        self.results.clear()
        self.raised = 0

    @property
    def attempted(self) -> int:
        """Episodes started: finished ones plus those that raised."""
        return len(self.results) + self.raised

    @property
    def failed(self) -> int:
        """Episodes that raised or ended in a collision."""
        collisions = sum(
            1 for result in self.results if result.outcome is Outcome.COLLISION
        )
        return self.raised + collisions

    @property
    def planned_steps(self) -> int:
        """Control steps planned over all finished episodes."""
        return sum(result.steps for result in self.results)


@dataclass
class ReplayCounter:
    """Replays the information filter performed, and their depth."""

    replays: int = 0
    depth: int = 0


class SpanRecorder(NullObserver):
    """Spans kept in parallel lists, with parents taken from a stack.

    The recorder is also the observer handed to ``SimulationEngine.run``.
    It is an enabled :class:`~repro.obs.observer.NullObserver`: it records
    ``begin``/``end`` spans (and ``span``, which the null observer would
    not record) and inherits the no-op point events, samples and metrics,
    because the benchmark reports time only and every dropped call is
    tracing cost.
    Ending a span closes any span still open inside it, so an exception
    that skips an inner ``end`` cannot corrupt the parent links of later
    spans.  The clock is read last in ``begin`` and first in ``end``, so
    most of the recorder's own bookkeeping falls between spans, where
    :func:`calibrate` measures it and :func:`aggregate` removes it.
    """

    #: Instrumented code records only when its observer is enabled.
    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.episodes: List[int] = []
        #: Episode id stamped on spans begun from now on.
        self.episode = -1
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str, **attrs) -> int:
        """Open a span under the innermost open span; returns its index."""
        stack = self._stack
        index = len(self.names)
        self.names.append(name)
        self.ends.append(math.nan)
        self.parents.append(stack[-1] if stack else -1)
        self.episodes.append(self.episode)
        stack.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, handle: int, **attrs) -> None:
        """Close span ``handle`` and any span still open inside it."""
        now = self.clock()
        stack = self._stack
        if stack and stack[-1] == handle:
            stack.pop()
            self.ends[handle] = now
            return
        if handle not in stack:
            return
        while stack:
            top = stack.pop()
            self.ends[top] = now
            if top == handle:
                return

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[int]:
        """Context-managed :meth:`begin`/:meth:`end` pair."""
        handle = self.begin(name)
        try:
            yield handle
        finally:
            self.end(handle)


def _episode_wrapper(
    original: Callable,
    log: EpisodeLog,
    recorder: Optional[SpanRecorder],
) -> Callable:
    """``SimulationEngine.run`` timed, and traced when a recorder is given."""
    if recorder is None:

        @functools.wraps(original)
        def run(self, planner, estimator_factory, rng, observer=None):
            started = time.perf_counter()
            try:
                result = original(
                    self, planner, estimator_factory, rng, observer=observer
                )
            except Exception:
                log.raised += 1
                raise
            log.durations.append(time.perf_counter() - started)
            log.results.append(result)
            return result

        return run

    @functools.wraps(original)
    def traced_run(self, planner, estimator_factory, rng, observer=None):
        recorder.episode += 1
        handle = recorder.begin("episode")
        started = recorder.starts[handle]
        try:
            result = original(
                self, planner, estimator_factory, rng, observer=recorder
            )
        except Exception:
            log.raised += 1
            raise
        finally:
            recorder.end(handle)
        log.durations.append(recorder.ends[handle] - started)
        log.results.append(result)
        return result

    return traced_run


def _span_wrapper(original: Callable, name: str, recorder: SpanRecorder) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        handle = recorder.begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.end(handle)

    return wrapper


def _replay_wrapper(
    original: Callable, recorder: SpanRecorder, counter: ReplayCounter
) -> Callable:
    """``InformationFilter.on_message`` timed, counting replays and depth."""

    @functools.wraps(original)
    def on_message(self, message, now):
        replay = self.replay_filter
        before = replay.replay_count
        handle = recorder.begin("filter.replay")
        try:
            original(self, message, now)
        finally:
            recorder.end(handle)
        if replay.replay_count > before:
            counter.replays += 1
            counter.depth += replay.last_replay_depth

    return on_message


@contextmanager
def instrumented(
    log: EpisodeLog,
    recorder: Optional[SpanRecorder] = None,
    replays: Optional[ReplayCounter] = None,
) -> Iterator[None]:
    """Install the episode wrapper (and, with a recorder, every layer wrapper).

    The original class attributes are put back on exit, even when the
    measured code raises.
    """
    patches: List[Tuple[type, str, Callable]] = []
    original_run = SimulationEngine.__dict__["run"]
    patches.append(
        (SimulationEngine, "run", _episode_wrapper(original_run, log, recorder))
    )
    if recorder is not None:
        counter = replays if replays is not None else ReplayCounter()
        for name, cls, attribute in LAYER_METHODS:
            # Wrapping an inherited attribute would shadow it on the
            # subclass and leave it there after restore.
            original = cls.__dict__[attribute]
            if cls is InformationFilter and attribute == "on_message":
                wrapper = _replay_wrapper(original, recorder, counter)
            else:
                wrapper = _span_wrapper(original, name, recorder)
            patches.append((cls, attribute, wrapper))
    saved = [(cls, attribute, cls.__dict__[attribute]) for cls, attribute, _ in patches]
    try:
        for cls, attribute, wrapper in patches:
            setattr(cls, attribute, wrapper)
        yield
    finally:
        for cls, attribute, original in saved:
            setattr(cls, attribute, original)


@dataclass
class LayerTotals:
    """Summed time and call count of every span with one name."""

    total: float = 0.0
    self_time: float = 0.0
    calls: int = 0


@dataclass(frozen=True)
class Bias:
    """The recorder's own cost per span, in seconds.

    ``outside`` is spent between the span's parent's clock readings but
    outside the span's own (the call into ``begin`` before the clock is
    read, and out of ``end`` after); ``inside`` is spent between the
    span's two clock readings on an empty body.
    """

    outside: float = 0.0
    inside: float = 0.0


def calibrate(
    clock: Callable[[], float] = time.perf_counter,
    pairs: int = 5000,
    batches: int = 5,
) -> Bias:
    """Measure :class:`Bias` on empty spans; medians over ``batches``."""
    outside, inside = [], []
    for _ in range(batches):
        probe = SpanRecorder(clock)
        root = probe.begin("calibration")
        for _ in range(pairs):
            probe.end(probe.begin("probe"))
        probe.end(root)
        spans = zip(probe.starts[1:], probe.ends[1:])
        children = sum(end - start for start, end in spans)
        outside.append((probe.ends[root] - probe.starts[root] - children) / pairs)
        inside.append(children / pairs)
    return Bias(outside=statistics.median(outside), inside=statistics.median(inside))


def aggregate(recorder: SpanRecorder, bias: Bias = Bias()) -> Dict[str, LayerTotals]:
    """Total time, self time and calls per span name, less the recorder's cost.

    Each span's duration loses ``bias.inside`` for itself and
    ``bias.outside + bias.inside`` for every span nested in it.  Self time
    is then the corrected duration minus the corrected durations of the
    direct children, so self times under a root still add up to the
    root's corrected duration.
    """
    n = len(recorder)
    parents = recorder.parents
    # A child is begun after its parent, so it has the larger index.
    descendants = [0] * n
    for index in range(n - 1, -1, -1):
        parent = parents[index]
        if parent >= 0:
            descendants[parent] += 1 + descendants[index]
    per_descendant = bias.outside + bias.inside
    durations = [
        end - start - bias.inside - descendants[index] * per_descendant
        for index, (start, end) in enumerate(zip(recorder.starts, recorder.ends))
    ]
    children = [0.0] * n
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent] += durations[index]
    totals: Dict[str, LayerTotals] = {}
    for index, name in enumerate(recorder.names):
        entry = totals.setdefault(name, LayerTotals())
        entry.total += durations[index]
        entry.self_time += durations[index] - children[index]
        entry.calls += 1
    return totals


def stage_coverage(totals: Dict[str, LayerTotals]) -> float:
    """Share of ``engine.step`` time that falls inside a named stage span."""
    step = totals.get("engine.step")
    if step is None or step.total <= 0.0:
        return 0.0
    covered = sum(
        totals[stage].total for stage in ENGINE_STAGES if stage in totals
    )
    return covered / step.total


def write_chrome_trace(
    recorder: SpanRecorder, path: Path, max_episodes: int = 20
) -> int:
    """Write the spans of the first episodes as a Chrome trace document.

    One thread row per episode; timestamps in microseconds from the first
    span.  Returns the number of events written.
    """
    origin = recorder.starts[0] if len(recorder) else 0.0
    events = []
    for index, name in enumerate(recorder.names):
        episode = recorder.episodes[index]
        if not 0 <= episode < max_episodes:
            continue
        start = recorder.starts[index]
        events.append(
            {
                "name": name,
                "ph": "X",
                "pid": 0,
                "tid": episode,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((recorder.ends[index] - start) * 1e6, 3),
            }
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
    return len(events)
