"""The safedim abstract interpreter.

One intraprocedural pass per function: the environment maps local names
to abstract dimensions (:data:`~repro.lint.dim.lattice.UNKNOWN`,
:data:`~repro.lint.dim.lattice.NUM`, or a concrete
:class:`~repro.lint.dim.lattice.Dim`), seeded from the function's
declared parameter units.  Statements are interpreted in order;
branches are interpreted on copies of the environment and merged with
the lattice join, so a name that is ``[m]`` on one path and ``[s]`` on
another degrades to unknown instead of guessing.  The pass is
deliberately *optimistic*: it only reports when **both** sides of an
operation have known, conflicting dimensions, so unannotated code stays
silent and every finding is rooted in two explicit declarations (or a
declaration plus a curated field unit).

Containers are transparent: an ``Interval`` of metres *is* ``[m]`` here
— ``iv.lo``, ``iv.width`` and ``iv.shift(dx)`` all stay in ``[m]`` —
because the safety algebra treats interval endpoints exactly like the
scalars they bound.

The statement-walking skeleton (assignment targets, branch merging,
loop widening) is shared with the shape pass through
:class:`repro.lint.interp.AbstractInterpreter`; this module holds only
the dimensional expression semantics and the checks.

Violations carry a ``kind`` that the SFL100–SFL105 rule family splits
on; the expensive analysis runs once per file and is cached across the
six rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lint.dim.annotations import FunctionUnits, extract_function_units
from repro.lint.dim.domain import (
    FIELD_UNITS,
    INTERVAL_METHODS,
    MATH_DIMENSIONLESS,
    MATH_SAME_DIM,
    MATH_SQRT,
    PASSTHROUGH_FUNCS,
    PHYSICAL_PARAMS,
    PRESERVING_ATTRS,
    IntervalMethod,
)
from repro.lint.dim.lattice import (
    NUM,
    UNKNOWN,
    AbstractDim,
    Dim,
    is_dim,
    join,
)
from repro.lint.dim.signatures import (
    SignatureTable,
    build_import_map,
    build_signature_table,
)
from repro.lint.interp import AbstractInterpreter, dotted_chain, iter_functions

__all__ = ["DimViolation", "analyze"]

#: Violation kinds, consumed by the SFL100–SFL105 rule family.
KIND_ADD = "add"
KIND_COMPARE = "compare"
KIND_CALL = "call"
KIND_RETURN = "return"
KIND_ANNOTATION = "annotation"
KIND_MISSING = "missing"

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: math.* module attributes that are plain numbers.
_MATH_CONSTANTS = frozenset({"inf", "nan", "pi", "e", "tau"})

#: Builtins that preserve their first argument's dimension.
_SAME_DIM_BUILTINS = frozenset({"abs", "float", "int", "round"})


@dataclass(frozen=True, slots=True)
class DimViolation:
    """One dimensional inconsistency found by the pass."""

    line: int
    column: int
    kind: str
    message: str


def _fmt(value: AbstractDim) -> str:
    """Bracketed rendering of a known dimension for messages."""
    return f"[{value}]" if is_dim(value) else "[?]"


class _FunctionInterpreter(AbstractInterpreter):
    """Abstract interpretation of one function body over dimensions."""

    def __init__(
        self,
        module: str,
        class_name: Optional[str],
        func: _FuncNode,
        units: FunctionUnits,
        table: SignatureTable,
        imports: Dict[str, str],
        violations: List[DimViolation],
    ) -> None:
        super().__init__(func)
        self.module = module
        self.class_name = class_name
        self.units = units
        self.table = table
        self.imports = imports
        self.violations = violations
        all_args = [
            *func.args.posonlyargs,
            *func.args.args,
            *func.args.kwonlyargs,
        ]
        for arg in all_args:
            self.env[arg.arg] = units.params.get(arg.arg, UNKNOWN)

    # -- lattice hooks --------------------------------------------------
    def unknown(self) -> AbstractDim:
        return UNKNOWN

    def join_values(self, a: AbstractDim, b: AbstractDim) -> AbstractDim:
        return join(a, b)

    # -- reporting ------------------------------------------------------
    def _report(self, node: ast.AST, kind: str, message: str) -> None:
        self.violations.append(
            DimViolation(
                line=getattr(node, "lineno", self.func.lineno),
                column=getattr(node, "col_offset", 0),
                kind=kind,
                message=message,
            )
        )

    # -- expression evaluation -----------------------------------------
    def _eval_Constant(self, node: ast.Constant) -> AbstractDim:
        if isinstance(node.value, (int, float, complex)):
            return NUM
        return UNKNOWN

    def _eval_Attribute(self, node: ast.Attribute) -> AbstractDim:
        if node.attr in PRESERVING_ATTRS:
            return self.eval(node.value)
        if node.attr in FIELD_UNITS:
            return FIELD_UNITS[node.attr]
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.class_name is not None
        ):
            own = self.table.lookup(f"{self.module}.{self.class_name}")
            if own is not None and node.attr in own.params:
                return own.params[node.attr]
        if node.attr in _MATH_CONSTANTS and isinstance(
            node.value, ast.Name
        ):
            if self.imports.get(node.value.id) == "math":
                return NUM
        self.eval(node.value)
        return UNKNOWN

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> AbstractDim:
        operand = self.eval(node.operand)
        if isinstance(node.op, ast.Not):
            return NUM
        return operand

    def _eval_BoolOp(self, node: ast.BoolOp) -> AbstractDim:
        result: AbstractDim = NUM
        for value in node.values:
            result = join(result, self.eval(value))
        return result

    def _eval_BinOp(self, node: ast.BinOp) -> AbstractDim:
        left = self.eval(node.left)
        right = self.eval(node.right)
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub)):
            verb = "adding" if isinstance(op, ast.Add) else "subtracting"
            return self._additive(node, left, right, verb)
        if isinstance(op, ast.Mult):
            return self._multiplicative(left, right, invert=False)
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            return self._multiplicative(left, right, invert=True)
        if isinstance(op, ast.Mod):
            # x % y is additive-like; stay quiet but propagate x.
            if left is NUM and is_dim(right):
                return right
            return left if left is not UNKNOWN else UNKNOWN
        if isinstance(op, ast.Pow):
            return self._power(left, node.right)
        return UNKNOWN

    def _additive(
        self,
        node: ast.AST,
        left: AbstractDim,
        right: AbstractDim,
        verb: str,
    ) -> AbstractDim:
        if is_dim(left) and is_dim(right):
            if left != right:
                self._report(
                    node,
                    KIND_ADD,
                    f"{verb} {_fmt(right)} to {_fmt(left)}: unlike "
                    "dimensions never belong in the same sum",
                )
                return UNKNOWN
            return left
        if is_dim(left) and right is NUM:
            return left
        if is_dim(right) and left is NUM:
            return right
        if left is NUM and right is NUM:
            return NUM
        return UNKNOWN

    @staticmethod
    def _multiplicative(
        left: AbstractDim, right: AbstractDim, *, invert: bool
    ) -> AbstractDim:
        if left is UNKNOWN or right is UNKNOWN:
            return UNKNOWN
        if left is NUM and right is NUM:
            return NUM
        left_dim = left if is_dim(left) else Dim(Fraction(0), Fraction(0))
        right_dim = right if is_dim(right) else Dim(Fraction(0), Fraction(0))
        assert isinstance(left_dim, Dim) and isinstance(right_dim, Dim)
        return left_dim / right_dim if invert else left_dim * right_dim

    def _power(
        self, base: AbstractDim, exponent_node: ast.expr
    ) -> AbstractDim:
        exponent = self.eval(exponent_node)
        if base is NUM:
            return NUM
        if not is_dim(base):
            return UNKNOWN
        if isinstance(exponent_node, ast.Constant) and isinstance(
            exponent_node.value, (int, float)
        ):
            try:
                return base ** Fraction(exponent_node.value)
            except (ValueError, OverflowError):
                return UNKNOWN
        del exponent
        return UNKNOWN

    def _eval_Compare(self, node: ast.Compare) -> AbstractDim:
        operands = [node.left, *node.comparators]
        dims = [self.eval(operand) for operand in operands]
        for index, op in enumerate(node.ops):
            left, right = dims[index], dims[index + 1]
            if not isinstance(
                op,
                (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq,
                 ast.In, ast.NotIn),
            ):
                continue
            if is_dim(left) and is_dim(right) and left != right:
                self._report(
                    node,
                    KIND_COMPARE,
                    f"comparing {_fmt(left)} with {_fmt(right)}: the "
                    "ordering of unlike dimensions is meaningless",
                )
        return NUM

    # -- calls ----------------------------------------------------------
    def _eval_Call(self, node: ast.Call) -> AbstractDim:
        arg_dims = [self.eval(arg) for arg in node.args]
        keyword_dims = {
            keyword.arg: self.eval(keyword.value)
            for keyword in node.keywords
            if keyword.arg is not None
        }
        for keyword in node.keywords:
            if keyword.arg is None:  # **kwargs: evaluated, unmapped
                self.eval(keyword.value)

        func = node.func
        if isinstance(func, ast.Name):
            return self._call_name(node, func.id, arg_dims, keyword_dims)
        if isinstance(func, ast.Attribute):
            return self._call_attribute(node, func, arg_dims, keyword_dims)
        self.eval(func)
        return UNKNOWN

    def _call_name(
        self,
        node: ast.Call,
        name: str,
        arg_dims: List[AbstractDim],
        keyword_dims: Dict[str, AbstractDim],
    ) -> AbstractDim:
        fq = self.imports.get(name)
        if fq is None and self.table.lookup(f"{self.module}.{name}"):
            fq = f"{self.module}.{name}"
        if fq is not None:
            return self._call_resolved(
                node, fq, name, arg_dims, keyword_dims, skip_self=False
            )
        if name in ("min", "max"):
            return self._check_homogeneous(node, name, arg_dims)
        if name in _SAME_DIM_BUILTINS and arg_dims:
            return arg_dims[0]
        if name == "len":
            return NUM
        return UNKNOWN

    def _call_attribute(
        self,
        node: ast.Call,
        func: ast.Attribute,
        arg_dims: List[AbstractDim],
        keyword_dims: Dict[str, AbstractDim],
    ) -> AbstractDim:
        chain = dotted_chain(func)
        if chain is not None and chain[0] in self.imports:
            fq = ".".join([self.imports[chain[0]], *chain[1:]])
            if fq.startswith("math."):
                return self._call_math(node, fq[5:], arg_dims)
            if self.table.lookup(fq) is not None:
                return self._call_resolved(
                    node, fq, chain[-1], arg_dims, keyword_dims,
                    skip_self=False,
                )
        if (
            chain is not None
            and chain[0] == "self"
            and len(chain) == 2
            and self.class_name is not None
        ):
            fq = f"{self.module}.{self.class_name}.{chain[1]}"
            if self.table.lookup(fq) is not None:
                return self._call_resolved(
                    node, fq, chain[1], arg_dims, keyword_dims,
                    skip_self=True,
                )
        method = func.attr
        if method in INTERVAL_METHODS:
            return self._call_interval(
                node, method, INTERVAL_METHODS[method], func, arg_dims
            )
        by_name = self.table.lookup_method(method)
        if by_name is not None and by_name.has_declarations:
            self.eval(func.value)
            return self._check_against_units(
                node, method, by_name, arg_dims, keyword_dims,
                skip_self=True,
            )
        self.eval(func.value)
        return UNKNOWN

    def _call_math(
        self, node: ast.Call, name: str, arg_dims: List[AbstractDim]
    ) -> AbstractDim:
        if name == MATH_SQRT and arg_dims:
            base = arg_dims[0]
            if is_dim(base):
                assert isinstance(base, Dim)
                return base ** Fraction(1, 2)
            return base
        if name in MATH_SAME_DIM and arg_dims:
            return arg_dims[0]
        if name == "hypot":
            return self._check_homogeneous(node, "math.hypot", arg_dims)
        if name == "isclose":
            self._check_homogeneous(node, "math.isclose", arg_dims)
            return NUM
        if name in MATH_DIMENSIONLESS:
            return NUM
        return UNKNOWN

    def _check_homogeneous(
        self, node: ast.Call, name: str, arg_dims: Sequence[AbstractDim]
    ) -> AbstractDim:
        """All known args must share one dimension (min/max/hypot/...)."""
        result: AbstractDim = NUM
        for dim in arg_dims:
            if is_dim(result) and is_dim(dim) and result != dim:
                self._report(
                    node,
                    KIND_COMPARE,
                    f"{name}() mixes {_fmt(result)} and {_fmt(dim)}: "
                    "ordering unlike dimensions is meaningless",
                )
                return UNKNOWN
            result = join(result, dim)
        return result

    def _call_interval(
        self,
        node: ast.Call,
        method: str,
        spec: IntervalMethod,
        func: ast.Attribute,
        arg_dims: List[AbstractDim],
    ) -> AbstractDim:
        base = self.eval(func.value)
        for index in spec.base_args:
            if index < len(arg_dims):
                argument = arg_dims[index]
                if is_dim(base) and is_dim(argument) and base != argument:
                    self._report(
                        node,
                        KIND_CALL,
                        f"Interval.{method}() on an {_fmt(base)} interval "
                        f"given an {_fmt(argument)} argument",
                    )
        if spec.result == "base":
            return base
        if spec.result == "arg0":
            return arg_dims[0] if arg_dims else UNKNOWN
        if spec.result == "num":
            return NUM
        return UNKNOWN

    def _call_resolved(
        self,
        node: ast.Call,
        fq: str,
        display: str,
        arg_dims: List[AbstractDim],
        keyword_dims: Dict[str, AbstractDim],
        *,
        skip_self: bool,
    ) -> AbstractDim:
        units = self.table.lookup(fq)
        if units is None:
            return UNKNOWN
        short = fq.rsplit(".", 1)[-1]
        if short in PASSTHROUGH_FUNCS and not units.has_declarations:
            return arg_dims[0] if arg_dims else UNKNOWN
        if short == "Interval" and len(arg_dims) >= 2:
            # The Interval constructor is dimension-polymorphic: both
            # endpoints must agree, and the result carries their dim.
            return self._check_homogeneous(node, "Interval", arg_dims[:2])
        return self._check_against_units(
            node, display, units, arg_dims, keyword_dims, skip_self=skip_self
        )

    def _check_against_units(
        self,
        node: ast.Call,
        display: str,
        units: FunctionUnits,
        arg_dims: List[AbstractDim],
        keyword_dims: Dict[str, AbstractDim],
        *,
        skip_self: bool,
    ) -> AbstractDim:
        order = units.param_order
        # A caller never passes ``cls`` (a classmethod or ``__new__``
        # reached through its class); ``self`` is implicit only on a
        # bound call.
        if order and (order[0] == "cls" or (skip_self and order[0] == "self")):
            order = order[1:]
        has_star = any(isinstance(arg, ast.Starred) for arg in node.args)
        if not has_star:
            for index, dim in enumerate(arg_dims):
                if index >= len(order):
                    break
                self._check_argument(
                    node, display, order[index], units, dim
                )
        for name, dim in keyword_dims.items():
            self._check_argument(node, display, name, units, dim)
        return units.returns if units.returns is not None else UNKNOWN

    def _check_argument(
        self,
        node: ast.Call,
        display: str,
        name: str,
        units: FunctionUnits,
        dim: AbstractDim,
    ) -> None:
        declared = units.params.get(name)
        if declared is None or not is_dim(dim):
            return
        if dim != declared:
            self._report(
                node,
                KIND_CALL,
                f"argument '{name}' of {display}() is declared "
                f"[{declared}] but receives {_fmt(dim)}",
            )

    # -- statement checks ----------------------------------------------
    def _store_attribute(
        self, target: ast.Attribute, value: AbstractDim
    ) -> None:
        declared = FIELD_UNITS.get(target.attr)
        if declared is not None and is_dim(value) and value != declared:
            self._report(
                target,
                KIND_RETURN,
                f"assigning {_fmt(value)} to attribute "
                f"'{target.attr}', whose repo-wide dimension is "
                f"[{declared}]",
            )

    def _augmented_result(
        self,
        statement: ast.AugAssign,
        current: AbstractDim,
        value: AbstractDim,
    ) -> AbstractDim:
        op = statement.op
        if isinstance(op, (ast.Add, ast.Sub)):
            verb = "adding" if isinstance(op, ast.Add) else "subtracting"
            return self._additive(statement, current, value, verb)
        if isinstance(op, ast.Mult):
            return self._multiplicative(current, value, invert=False)
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            return self._multiplicative(current, value, invert=True)
        return UNKNOWN

    def _exec_AnnAssign(self, statement: ast.AnnAssign) -> None:
        from repro.lint.dim.annotations import _unit_from_annotated

        issues: list = []
        declared = _unit_from_annotated(statement.annotation, issues)
        for issue in issues:
            self._report(
                statement,
                KIND_ANNOTATION,
                f"bad unit annotation: {issue.message}",
            )
        value = (
            self.eval(statement.value)
            if statement.value is not None
            else UNKNOWN
        )
        if declared is not None and is_dim(value) and value != declared:
            self._report(
                statement,
                KIND_RETURN,
                f"assigned value is {_fmt(value)} but the annotation "
                f"declares [{declared}]",
            )
        if isinstance(statement.target, ast.Name):
            self.env[statement.target.id] = (
                declared if declared is not None else value
            )

    def _exec_Return(self, statement: ast.Return) -> None:
        value = self.eval(statement.value)
        declared = self.units.returns
        if declared is not None and is_dim(value) and value != declared:
            self._report(
                statement,
                KIND_RETURN,
                f"returns {_fmt(value)} but the function declares "
                f"-> [{declared}]",
            )


def _check_missing_units(
    class_name: Optional[str],
    func: _FuncNode,
    units: FunctionUnits,
    violations: List[DimViolation],
) -> None:
    if func.name.startswith("_"):
        return
    if class_name is not None and class_name.startswith("_"):
        return
    physical = [
        arg.arg
        for arg in (
            *func.args.posonlyargs,
            *func.args.args,
            *func.args.kwonlyargs,
        )
        if arg.arg in PHYSICAL_PARAMS and arg.arg not in units.params
    ]
    if physical:
        violations.append(
            DimViolation(
                line=func.lineno,
                column=func.col_offset,
                kind=KIND_MISSING,
                message=(
                    "physical parameter(s) "
                    + ", ".join(repr(name) for name in physical)
                    + " carry no machine-checkable unit; add a "
                    "'Units: name [unit]' docstring line or an "
                    "Annotated hint (grammar: docs/LINTING.md)"
                ),
            )
        )


def _analyze_uncached(context, tree: ast.Module) -> Tuple[DimViolation, ...]:
    table: Optional[SignatureTable] = getattr(context, "signatures", None)
    if table is None:
        table = build_signature_table([(context.module, tree)])
    imports = build_import_map(context.module, tree)
    violations: List[DimViolation] = []
    for class_name, func in iter_functions(tree):
        dotted = (
            f"{context.module}.{class_name}.{func.name}"
            if class_name
            else f"{context.module}.{func.name}"
        )
        units = table.lookup(dotted) or extract_function_units(func)
        for issue in units.issues:
            violations.append(
                DimViolation(
                    line=issue.line,
                    column=0,
                    kind=KIND_ANNOTATION,
                    message=issue.message,
                )
            )
        _check_missing_units(class_name, func, units, violations)
        interpreter = _FunctionInterpreter(
            module=context.module,
            class_name=class_name,
            func=func,
            units=units,
            table=table,
            imports=imports,
            violations=violations,
        )
        interpreter.run()
    return tuple(violations)


#: (path, source) -> analysis result; the six SFL10x rules all consume
#: the same per-file analysis, so a tiny cache makes the family cost one
#: pass instead of six.
_CACHE: Dict[Tuple[str, str], Tuple[DimViolation, ...]] = {}
_CACHE_LIMIT = 8


def analyze(context, tree: ast.Module) -> Tuple[DimViolation, ...]:
    """Dimensional violations of one parsed file (cached per file)."""
    key = (context.path, context.source)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    result = _analyze_uncached(context, tree)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = result
    return result
