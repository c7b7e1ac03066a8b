"""Extraction of declared ``Effects:`` specs from function definitions.

Two equivalent machine-checked spellings, mirroring the ``Units:`` and
``Shapes:`` conventions (docs/API.md):

* a ``Effects:`` directive line in the docstring::

      Effects: draws-rng, mutates-args

  The payload is a comma-separated list of effect keywords
  (:data:`repro.lint.flow.effects.EFFECT_ORDER`), or the single keyword
  ``pure`` for the empty set.

* an ``Annotated`` return hint whose metadata carries the same list
  behind an ``effects:`` prefix::

      def clip(self, command) -> Annotated[float, "effects: pure"]: ...

A declared spec is an **upper bound**: the interprocedural inference
must stay under it (SFL305), and callers trust it instead of the
callee's inferred set — the assume-guarantee boundary that keeps the
write-only observer layer's honest ``reads-clock`` declarations from
having to be re-derived at every call site.

Malformed specs come back as issues (surfaced under SFL305) rather than
being silently ignored, exactly like SFL104/SFL204 for the sibling
grammars.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.lint.flow.effects import ALL_EFFECTS, PURE_KEYWORD
from repro.lint.specs import (
    SpecIssue,
    annotated_metadata,
    directive_pattern,
    docstring_lines,
    parse_keyword_payload,
)

__all__ = ["EffectSpec", "extract_function_effects"]

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_EFFECTS_LINE = directive_pattern("Effects")

#: ``Annotated`` metadata prefix addressing the flow pass.
_METADATA_PREFIX = "effects:"


@dataclass(frozen=True)
class EffectSpec:
    """The declared effects of one function, if any.

    Attributes
    ----------
    declared:
        The declared upper bound (``frozenset()`` for ``pure``), or
        ``None`` when the function carries no spec at all.
    line:
        Line of the declaration (the ``def`` line when undeclared),
        used to anchor SFL305/SFL306 findings.
    issues:
        Malformed declarations found during extraction.
    """

    declared: Optional[frozenset] = None
    line: int = 0
    issues: Tuple[SpecIssue, ...] = ()


def extract_function_effects(func: _FuncNode) -> EffectSpec:
    """Collect the declared effect spec of ``func``.

    Multiple ``Effects:`` docstring lines merge (union); an
    ``Annotated`` return metadata spec wins over the docstring when both
    are present, matching the dim/shape precedence.
    """
    issues: List[SpecIssue] = []
    declared: Optional[frozenset] = None
    spec_line = func.lineno

    for line, text in docstring_lines(func):
        match = _EFFECTS_LINE.match(text)
        if match is None:
            continue
        parsed = parse_keyword_payload(
            match.group("payload"),
            line,
            directive="Effects",
            vocabulary=ALL_EFFECTS,
            bottom_keyword=PURE_KEYWORD,
            issues=issues,
        )
        if parsed is not None:
            declared = parsed if declared is None else declared | parsed
            spec_line = line
        else:
            spec_line = line

    for constant in annotated_metadata(func.returns):
        text = constant.value.strip()
        if not text.lower().startswith(_METADATA_PREFIX):
            continue
        payload = text[len(_METADATA_PREFIX):]
        parsed = parse_keyword_payload(
            payload,
            constant.lineno,
            directive="Effects",
            vocabulary=ALL_EFFECTS,
            bottom_keyword=PURE_KEYWORD,
            issues=issues,
        )
        if parsed is not None:
            declared = parsed
            spec_line = constant.lineno

    return EffectSpec(
        declared=declared, line=spec_line, issues=tuple(issues)
    )
