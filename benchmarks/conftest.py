"""Shared configuration for the reproduction benchmarks.

Each benchmark regenerates one of the paper's tables or figures, prints
the rendered artifact (so ``pytest benchmarks/ --benchmark-only -s`` or
the captured output file doubles as the reproduction record), and
asserts the *shape* claims the paper makes.

Batch sizes default to a few hundred runs per cell — enough for stable
shapes in minutes; set ``REPRO_BENCH_SIMS`` to scale toward the paper's
80 000.

With ``REPRO_BENCH_RECORD=1`` (``make bench-record``) every benchmark
test's wall duration is persisted as one ``BENCH_<area>.json`` document
per benchmark file (``REPRO_BENCH_DIR`` overrides the output directory,
default ``benchmarks/``), giving later PRs a machine-readable baseline
to regress against — the trace-smoke overhead gate reads
``BENCH_trace_smoke.json`` this way.

Benchmarks can attach domain numbers beyond wall time via the
``bench_extra`` fixture (``bench_extra(p99_ms=1.7, shed=0.0)``); the
values land in the entry's ``extra`` mapping, which ``repro-obs expo``
renders as ``bench.<field>{test=...}`` gauges.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import ExperimentConfig
from repro.obs.bench_record import write_bench_documents

#: Runs per (setting, planner) cell; the sweep benches use a third.
BENCH_SIMS = int(os.environ.get("REPRO_BENCH_SIMS", "120"))

_RECORDING = os.environ.get("REPRO_BENCH_RECORD") == "1"
_RECORDED_ENTRIES: list = []

#: Per-nodeid extra measurements attached by the ``bench_extra`` fixture.
_BENCH_EXTRAS: dict = {}


def pytest_runtest_logreport(report):
    """Collect one ``(nodeid, outcome, duration)`` entry per test call."""
    if _RECORDING and report.when == "call":
        entry = {
            "nodeid": report.nodeid,
            "outcome": report.outcome,
            "duration_seconds": round(report.duration, 6),
        }
        extra = _BENCH_EXTRAS.get(report.nodeid)
        if extra:
            entry["extra"] = dict(extra)
        _RECORDED_ENTRIES.append(entry)


@pytest.fixture
def bench_extra(request):
    """Attach named measurements to this test's bench-record entry.

    Call it with keyword numbers (latencies, counters, rates); repeated
    calls merge.  A no-op unless ``REPRO_BENCH_RECORD=1``, so tests can
    call it unconditionally.
    """

    def _attach(**values):
        extras = _BENCH_EXTRAS.setdefault(request.node.nodeid, {})
        extras.update(values)

    return _attach


def pytest_sessionfinish(session, exitstatus):
    """Write the per-area ``BENCH_<area>.json`` documents."""
    if _RECORDING and _RECORDED_ENTRIES:
        directory = os.environ.get(
            "REPRO_BENCH_DIR", os.path.dirname(__file__)
        )
        paths = write_bench_documents(
            _RECORDED_ENTRIES,
            directory,
            context={"bench_sims": BENCH_SIMS},
        )
        for path in paths:
            print(f"bench-record: wrote {path}")


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The calibrated experiment configuration at benchmark batch size."""
    return ExperimentConfig().with_sims(BENCH_SIMS)


@pytest.fixture(scope="session")
def sweep_config(bench_config) -> ExperimentConfig:
    """Reduced batch for the per-point figure sweeps."""
    return bench_config.with_sims(max(40, BENCH_SIMS // 3))


@pytest.fixture(scope="session")
def run_once():
    """Helper: time a single execution of an expensive experiment."""

    def _run(benchmark, fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _run
