"""Test-side reference for :class:`repro.sim.runner.BatchRunner`.

The batch seeding contract fits in one line: simulation ``k`` of a batch
seeded ``seed`` is ``engine.run`` on child ``k`` of that seed.  These
helpers run exactly that, with no runner code in the loop, so the
runner's in-process path, process pool, retries and chunking are all
checked against something they do not share.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.results import BatchResult, FailureRecord, SimulationResult
from repro.sim.runner import make_estimator_factory
from repro.utils.rng import spawn_streams


def reference_batch(engine, planner, kind, n_sims, seed) -> List[SimulationResult]:
    """The batch's results, one ``engine.run`` per child stream."""
    factory = make_estimator_factory(kind, engine)
    return [engine.run(planner, factory, s) for s in spawn_streams(seed, n_sims)]


def reference_batch_detailed(engine, planner, kind, n_sims, seed) -> BatchResult:
    """:func:`reference_batch`, with every raising episode as a record."""
    factory = make_estimator_factory(kind, engine)
    results: List[Optional[SimulationResult]] = []
    failures: List[FailureRecord] = []
    for index, stream in enumerate(spawn_streams(seed, n_sims)):
        try:
            results.append(engine.run(planner, factory, stream))
        except Exception as exc:  # safelint: disable=SFL003 - recorded as FailureRecord
            results.append(None)
            failures.append(
                FailureRecord(
                    index=index,
                    stage="simulation",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    attempts=1,
                )
            )
    return BatchResult(results=results, failures=failures)
