"""The machine-readable batchability report.

``repro-lint --batch-report run_episode`` answers the question the
migration to the lockstep batch engine starts with: *which
functions on the episode hot path carry effects, and which of those
effects block lock-step batching?*  The output is JSON so the
migration tooling (and CI dashboards) can diff it between commits —
a new blocking effect appearing on the hot path is a regression even
when every lint rule still passes.

Schema (version 1)::

    {
      "schema": 1,
      "root": "repro.sim.engine.run_episode",
      "reachable": 37,
      "batchable": false,
      "blocking": ["repro.obs....", ...],      # functions with a
                                                # blocking effect
      "functions": [                            # every *effectful*
        {                                       # reachable function
          "qualname": "...",
          "effects": ["draws-rng", ...],        # inferred, canonical
          "declared": ["draws-rng"] | null,     # Effects: spec if any
          "blocking": ["reads-clock", ...],     # subset that blocks
          "advisory": ["draws-rng", ...],       # subset that refactors
          "evidence": {"draws-rng":
              {"line": 212, "why": "draws from rng.normal"}},
        }, ...
      ],
      "pure": ["repro.dynamics....", ...],      # reachable & pure
    }

Functions are sorted by qualname; effect lists are in canonical
lattice order — the report is byte-stable for a given tree.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lint.flow.effects import BLOCKING_EFFECTS, EFFECT_ORDER
from repro.lint.flow.fixpoint import EffectTable

__all__ = ["batchability_report"]

SCHEMA_VERSION = 1


def _ordered(effects) -> List[str]:
    return [effect for effect in EFFECT_ORDER if effect in effects]


def batchability_report(table: EffectTable, root: str) -> Dict:
    """The batchability verdict for everything reachable from ``root``.

    ``root`` may be a bare or partial dotted name
    (``run_episode`` -> ``repro.sim.engine.run_episode``); raises
    :class:`ValueError` when it resolves to nothing or to more than one
    function.
    """
    resolved = table.resolve(root)
    if resolved is None:
        raise ValueError(
            f"--batch-report root {root!r} does not resolve to exactly "
            "one analyzed function (use a longer dotted suffix)"
        )

    reachable = table.reachable_from(resolved)
    effectful: List[Dict] = []
    pure: List[str] = []
    blocking_functions: List[str] = []

    for qualname in reachable:
        verdict = table.lookup(qualname)
        if verdict is None:
            continue
        if not verdict.inferred:
            pure.append(qualname)
            continue
        blocking = _ordered(verdict.inferred & BLOCKING_EFFECTS)
        if blocking:
            blocking_functions.append(qualname)
        effectful.append(
            {
                "qualname": qualname,
                "effects": _ordered(verdict.inferred),
                "declared": (
                    _ordered(verdict.declared)
                    if verdict.declared is not None
                    else None
                ),
                "blocking": blocking,
                "advisory": _ordered(
                    verdict.inferred - BLOCKING_EFFECTS
                ),
                "evidence": {
                    effect: {"line": line, "why": why}
                    for effect, (line, why) in sorted(
                        verdict.evidence.items()
                    )
                    if effect in verdict.inferred
                },
            }
        )

    return {
        "schema": SCHEMA_VERSION,
        "root": resolved,
        "reachable": len(reachable),
        "batchable": not blocking_functions,
        "blocking": blocking_functions,
        "functions": effectful,
        "pure": pure,
    }
