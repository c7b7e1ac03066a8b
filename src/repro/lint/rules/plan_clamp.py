"""SFL007 — planner ``plan_floats()`` outputs must be clamped before return.

The safety theorem treats the planner output as an acceleration in
``[a_min, a_max]``; the vehicle model would physically clip it anyway,
but the *monitor's one-step reachability margin* is computed from the
commanded value, so an out-of-range command desynchronises "what the
monitor certified" from "what the plant does".  The codebase's idiom is
that every ``plan_floats()``/``plan_from_window()``/``plan()`` return
site is one of:

* a call through ``limits.clip_acceleration(...)`` or
  :func:`repro.planners.base.clipped`;
* a limit attribute itself (``limits.a_min`` / ``limits.a_max``);
* a numeric literal (``0.0`` — hold);
* delegation to a method reached through ``self`` (the delegate's own
  return sites are then subject to this rule where applicable), also
  when timed in a span: ``traced_call(tracer, name, self.<method>, ...)``;
* a conditional expression whose branches are each of the above.

Anything else — raw arithmetic, a bare variable — is flagged.
Deliberately unclamped planners (adversarial fixtures) carry an inline
``# safelint: disable=SFL007`` with a justification.
"""

from __future__ import annotations

import ast

from repro.lint.registry import register
from repro.lint.rules.base import Rule, function_returns

__all__ = ["PlanClampRule"]

_PLAN_METHODS = frozenset({"plan", "plan_floats", "plan_from_window"})
_CLAMP_CALLS = frozenset({"clip_acceleration", "clip"})
_CLAMP_FUNCS = frozenset({"clipped"})
_LIMIT_ATTRS = frozenset({"a_min", "a_max"})
#: Calls ``fn(*args)`` in a span: ``traced_call(tracer, name, fn, *args)``.
_TRACED_CALL = "traced_call"


def _rooted_at_self(node: ast.expr) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _is_bounded(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    ):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.operand, ast.Constant
    ):
        return True
    if isinstance(node, ast.Attribute) and node.attr in _LIMIT_ATTRS:
        return True
    if isinstance(node, ast.IfExp):
        return _is_bounded(node.body) and _is_bounded(node.orelse)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _CLAMP_FUNCS:
            return True
        if isinstance(func, ast.Name) and func.id == _TRACED_CALL:
            return len(node.args) > 2 and _rooted_at_self(node.args[2])
        if isinstance(func, ast.Attribute):
            if func.attr in _CLAMP_CALLS:
                return True
            if func.attr in _PLAN_METHODS:
                return True
            if _rooted_at_self(func):
                return True
    return False


@register
class PlanClampRule(Rule):
    """Flag unclamped return sites in planner ``plan_floats()`` methods."""

    rule_id = "SFL007"
    name = "unclamped-plan-output"
    rationale = (
        "The monitor's one-step margin is computed from the commanded "
        "acceleration; returning a value outside [a_min, a_max] "
        "desynchronises the certificate from the plant. Route every "
        "return through clip_acceleration()/clipped() or a limit "
        "attribute."
    )
    scope = "planner"

    def __init__(self, context) -> None:
        super().__init__(context)
        self._class_depth = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Track class nesting while visiting the body."""
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Check a function definition."""
        if self._class_depth > 0 and node.name in _PLAN_METHODS:
            for ret in function_returns(node):
                if ret.value is None:
                    self.report(
                        ret,
                        f"{node.name}() returns None; planners must "
                        "return a clamped acceleration",
                    )
                elif not _is_bounded(ret.value):
                    self.report(
                        ret,
                        f"{node.name}() return value is not visibly "
                        "clamped; route it through "
                        "limits.clip_acceleration() or clipped()",
                    )
        self.generic_visit(node)
