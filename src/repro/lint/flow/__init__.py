"""safeflow — interprocedural purity/effect & vectorization-readiness.

The lockstep batch engine replaces the scalar
per-episode loop with structure-of-arrays numpy algebra over thousands
of episodes at once.  That migration is only sound if every function on
the episode hot path is free of hidden state: no module-global or
closure mutation (batches would cross-contaminate), no unordered
iteration or wall-clock reads feeding results (the bit-identical
resume/trace contracts from PRs 4-5 would silently break), and no
per-element numpy calls that serialize what should be one batched op.

This package proves those properties statically:

* :mod:`repro.lint.flow.callgraph` — a cross-module call graph over the
  linted tree (import-aware name resolution, method-name index, SCC
  condensation for recursion);
* :mod:`repro.lint.flow.facts` — per-function *local* effect facts
  (mutations, I/O, RNG draws, clock reads, global/closure writes);
* :mod:`repro.lint.flow.annotations` — the declared ``Effects:``
  docstring / ``Annotated`` spec (shared grammar plumbing with the dim
  and shape passes via :mod:`repro.lint.specs`);
* :mod:`repro.lint.flow.fixpoint` — the interprocedural effect
  inference: a bottom-up fixpoint over the SCC condensation, with
  declared specs acting as assume-guarantee boundaries;
* :mod:`repro.lint.flow.loops` — the vectorization-readiness loop
  detectors (per-element numpy calls, append-then-``np.array``
  accumulation, hoistable loop-invariant pure calls);
* :mod:`repro.lint.flow.checker` — the per-file analysis consumed by
  the SFL300-SFL306 rule family;
* :mod:`repro.lint.flow.report` — the machine-readable batchability
  report behind ``repro-lint --batch-report run_episode``.
"""

from __future__ import annotations

from repro.lint.flow.annotations import (
    EffectSpec,
    extract_function_effects,
)
from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.effects import (
    ALL_EFFECTS,
    BLOCKING_EFFECTS,
    DOES_IO,
    DRAWS_RNG,
    EFFECT_ORDER,
    MUTATES_ARGS,
    MUTATES_GLOBAL,
    PURE,
    READS_CLOCK,
    READS_STATE,
    format_effects,
)
from repro.lint.flow.fixpoint import (
    EffectTable,
    FunctionEffects,
    build_effect_table,
)
from repro.lint.flow.report import batchability_report

__all__ = [
    "ALL_EFFECTS",
    "BLOCKING_EFFECTS",
    "CallGraph",
    "DOES_IO",
    "DRAWS_RNG",
    "EFFECT_ORDER",
    "EffectSpec",
    "EffectTable",
    "FunctionEffects",
    "MUTATES_ARGS",
    "MUTATES_GLOBAL",
    "PURE",
    "READS_CLOCK",
    "READS_STATE",
    "batchability_report",
    "build_call_graph",
    "build_effect_table",
    "extract_function_effects",
    "format_effects",
]
