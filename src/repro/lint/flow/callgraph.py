"""A cross-module call graph over the linted tree.

Nodes are the module-level functions and class methods of the analyzed
modules, keyed by dotted qualname (``pkg.mod.func`` /
``pkg.mod.Class.method``).  Edges are resolved syntactically, reusing
the dim pass's import map (:func:`repro.lint.dim.signatures
.build_import_map`) so aliased and relative imports land on the right
module:

* ``name(...)`` — a module-level function or class of the defining
  module, or whatever the import map says ``name`` is; instantiating a
  class edges to its ``__init__``;
* ``self.m(...)`` / ``cls.m(...)`` / ``C.m(...)`` — the method of the
  caller's own class (or the named same-module class) when it defines
  one, else every user-defined method named ``m`` anywhere in the tree
  (the *method-name index* — a deliberate over-approximation, since a
  receiver's class is rarely knowable syntactically);
* ``obj.m(...)`` — when ``obj`` is a parameter or local with a class
  annotation (``engine: SimulationEngine``, ``injector:
  Optional[FaultInjector] = ...``), the call pins to that class's
  method; otherwise the method-name index, except that
  builtin-container mutator names (``append``, ``update``, ...) on a
  *local* receiver are taken to be genuine container operations and
  edge nowhere (otherwise every local ``list.append`` would alias
  every user-defined ``append``).

Each edge records whether the call syntactically passes any caller
parameter (as receiver or argument) — ``mutates-args`` propagates to
the caller only along such edges, since mutating a freshly-built local
is the caller's private business.

Recursion is handled by SCC condensation: :meth:`CallGraph.sccs` emits
strongly connected components callees-first (iterative Tarjan, safe on
deep graphs), so the effect fixpoint is a single bottom-up sweep with
one union per cycle.

Known blind spots, shared with every syntactic call graph: calls
through ``super()``, values returned from factories, callbacks invoked
via a parameter, and ``@property`` accesses are not edged.  The effect
inference therefore *under*-approximates through those constructs;
declared ``Effects:`` specs at the relevant boundaries are the
mitigation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.lint.dim.signatures import build_import_map
from repro.lint.flow.facts import MUTATOR_METHODS, _strip_optional
from repro.lint.interp import assigned_names, dotted_chain

__all__ = ["CallEdge", "CallGraph", "FunctionNode", "build_call_graph"]

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class FunctionNode:
    """One analyzed function or method."""

    qualname: str
    module: str
    class_name: Optional[str]
    name: str
    func: _FuncNode = field(repr=False, compare=False)

    @property
    def line(self) -> int:
        """Line of the ``def`` (finding anchor of last resort)."""
        return self.func.lineno


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site.

    ``passes_params`` is True when the receiver or any argument
    syntactically mentions a caller parameter; ``via_index`` marks
    edges resolved through the method-name index rather than a direct
    name lookup (useful for explaining over-approximated findings).
    """

    caller: str
    callee: str
    line: int
    passes_params: bool = False
    via_index: bool = False


def _module_variables(tree: ast.Module) -> FrozenSet[str]:
    """Module-level variable bindings (imports/defs excluded)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(assigned_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(assigned_names(node.target))
    names.discard("__all__")
    return frozenset(names)


class CallGraph:
    """The resolved call graph plus per-module context tables."""

    def __init__(self) -> None:
        self.nodes: Dict[str, FunctionNode] = {}
        self.edges: Dict[str, List[CallEdge]] = {}
        #: ``pkg.mod.Class`` -> ``__init__`` qualname (or None).
        self.class_inits: Dict[str, Optional[str]] = {}
        self.module_vars: Dict[str, FrozenSet[str]] = {}
        self.imports: Dict[str, Dict[str, str]] = {}
        self._method_index: Dict[str, Tuple[str, ...]] = {}

    # -- lookups --------------------------------------------------------
    def methods_named(self, name: str) -> Tuple[str, ...]:
        """Every method qualname with this name (the untyped-receiver
        over-approximation; empty for container-mutator names)."""
        return self._method_index.get(name, ())

    def resolve(self, name: str) -> Optional[str]:
        """Resolve a (possibly partial) dotted name to a node qualname.

        Exact qualnames win; otherwise a unique dotted-suffix match is
        accepted (``run_episode`` -> ``repro.sim.engine.run_episode``),
        which is what lets the CLI take bare function names.
        """
        if name in self.nodes:
            return name
        suffix = name if name.startswith(".") else "." + name
        matches = [
            qualname
            for qualname in self.nodes
            if qualname.endswith(suffix)
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    def reachable_from(self, root: str) -> List[str]:
        """Qualnames reachable from ``root`` (root included), sorted."""
        seen: Set[str] = set()
        stack = [root]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self.edges.get(current, ()):
                if edge.callee not in seen:
                    stack.append(edge.callee)
        return sorted(seen)

    # -- SCC condensation ----------------------------------------------
    def sccs(self) -> List[List[str]]:
        """Strongly connected components, callees before callers.

        Iterative Tarjan — the sim tree is shallow today, but a lint
        pass must not die by recursion limit on whatever it is pointed
        at tomorrow.
        """
        index_of: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        components: List[List[str]] = []
        counter = 0

        for start in sorted(self.nodes):
            if start in index_of:
                continue
            # Explicit work stack of (node, iterator position) frames.
            work: List[Tuple[str, int]] = [(start, 0)]
            while work:
                node, position = work.pop()
                if position == 0:
                    index_of[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                callees = self.edges.get(node, ())
                for offset in range(position, len(callees)):
                    callee = callees[offset].callee
                    if callee not in self.nodes:
                        continue
                    if callee not in index_of:
                        work.append((node, offset + 1))
                        work.append((callee, 0))
                        recurse = True
                        break
                    if callee in on_stack:
                        low[node] = min(low[node], index_of[callee])
                if recurse:
                    continue
                if low[node] == index_of[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return components


class _CallCollector(ast.NodeVisitor):
    """Collect the outgoing edges of one function body."""

    def __init__(
        self,
        graph: CallGraph,
        node: FunctionNode,
        params: FrozenSet[str],
        local_names: FrozenSet[str],
    ) -> None:
        self.graph = graph
        self.node = node
        self.params = params
        self.local_names = local_names
        self.edges: List[CallEdge] = []
        #: Annotated name -> class qualname, for typed receivers
        #: (``engine: SimulationEngine`` pins ``engine.run()`` to that
        #: class instead of the promiscuous method-name index).
        self.param_types: Dict[str, str] = {}
        imports = graph.imports.get(node.module, {})
        arguments = node.func.args
        for arg in [
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ]:
            if arg.annotation is None:
                continue
            self._pin_receiver_type(arg.arg, arg.annotation, imports)
        # Annotated local assignments pin the same way (``injector:
        # Optional[FaultInjector] = None`` resolves ``injector.planner_entry``
        # to that class).  A parameter annotation wins over a local
        # one of the same name; nested defs are folded into the
        # enclosing node by the fact extractor, so their annotated
        # locals land here too.
        for sub in ast.walk(node.func):
            if (
                isinstance(sub, ast.AnnAssign)
                and isinstance(sub.target, ast.Name)
                and sub.target.id not in self.param_types
            ):
                self._pin_receiver_type(
                    sub.target.id, sub.annotation, imports
                )

    def _pin_receiver_type(
        self, name: str, annotation: ast.expr, imports: Mapping[str, str]
    ) -> None:
        """Record ``name``'s class qualname if the annotation names one."""
        chain = dotted_chain(_strip_optional(annotation))
        if not chain:
            return
        if len(chain) == 1:
            candidates = [
                f"{self.node.module}.{chain[0]}",
                imports.get(chain[0], ""),
            ]
        else:
            root_module = imports.get(chain[0])
            candidates = (
                [".".join([root_module, *chain[1:]])] if root_module else []
            )
        for candidate in candidates:
            if candidate in self.graph.class_inits:
                self.param_types[name] = candidate
                break

    # Nested defs are folded into the enclosing function by the fact
    # extractor; their call sites belong to the enclosing node too.

    def visit_Call(self, call: ast.Call) -> None:
        chain = dotted_chain(call.func)
        if chain:
            self._resolve(chain, call)
        self.generic_visit(call)

    def _mentions_param(self, *exprs: Optional[ast.expr]) -> bool:
        for expr in exprs:
            if expr is None:
                continue
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name) and sub.id in self.params:
                    return True
        return False

    def _passes_params(self, call: ast.Call) -> bool:
        receiver = (
            call.func.value
            if isinstance(call.func, ast.Attribute)
            else None
        )
        return self._mentions_param(
            receiver,
            *call.args,
            *[keyword.value for keyword in call.keywords],
        )

    def _add(
        self, callee: Optional[str], call: ast.Call, *, via_index: bool = False
    ) -> None:
        if callee is None:
            return
        self.edges.append(
            CallEdge(
                caller=self.node.qualname,
                callee=callee,
                line=call.lineno,
                passes_params=self._passes_params(call),
                via_index=via_index,
            )
        )

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        """A fully-qualified dotted target -> node qualname, if ours."""
        if dotted in self.graph.nodes:
            return dotted
        if dotted in self.graph.class_inits:
            return self.graph.class_inits[dotted]
        return None

    def _resolve(self, chain: List[str], call: ast.Call) -> None:
        graph = self.graph
        module = self.node.module
        imports = graph.imports.get(module, {})
        root = chain[0]

        if len(chain) == 1:
            if root in self.local_names and root not in imports:
                return  # a local callable; opaque
            direct = self._resolve_dotted(f"{module}.{root}")
            if direct is not None:
                self._add(direct, call)
                return
            if root in imports:
                self._add(self._resolve_dotted(imports[root]), call)
            return

        # self.m() / cls.m(): own class first, then the name index.
        if root in {"self", "cls"} and self.node.class_name is not None:
            own = (
                f"{module}.{self.node.class_name}.{chain[1]}"
                if len(chain) == 2
                else None
            )
            if own is not None and own in graph.nodes:
                self._add(own, call)
                return
            # ``self.helper()`` with no own definition (inheritance),
            # or ``self.attr.method()``: the name index decides.
            self._index_edges(chain[-1], call, receiver_root=root)
            return

        # Typed receiver: an annotated parameter pins the class, so the
        # call resolves precisely instead of through the name index.
        # A method the pinned class does not define (inherited, or a
        # stored callable) edges nowhere — declare effects at that
        # boundary if they matter.
        if len(chain) == 2 and root in self.param_types:
            typed = f"{self.param_types[root]}.{chain[1]}"
            self._add(typed if typed in graph.nodes else None, call)
            return

        # C.m() with C a class of this module, or a module alias chain —
        # but only when ``root`` is not shadowed by a parameter/local
        # (then the receiver is an instance, not the import).
        shadowed = root in self.params or (
            root in self.local_names and root not in imports
        )
        resolved_root = None if shadowed else imports.get(root)
        if resolved_root is None and not shadowed:
            if f"{module}.{root}" in graph.class_inits:
                resolved_root = f"{module}.{root}"
        if resolved_root is not None:
            dotted = ".".join([resolved_root, *chain[1:]])
            # External modules (numpy etc.) resolve to None: no edge.
            self._add(self._resolve_dotted(dotted), call)
            return

        # obj.m(): fall back to the method-name index.
        self._index_edges(chain[-1], call, receiver_root=root)

    def _index_edges(
        self, method: str, call: ast.Call, *, receiver_root: str
    ) -> None:
        if method in MUTATOR_METHODS:
            # ``xs.append(...)`` / ``d.update(...)`` is almost always a
            # builtin-container mutation (which the fact extractor
            # records directly), not a call into some class that
            # happens to define a method of that name — aliasing every
            # ``.append`` to, say, a journal writer's would poison the
            # whole graph with its I/O.  The cost: a genuine call to a
            # user-defined method *named like* a container mutator is
            # not edged; declare effects at that boundary if they
            # matter.
            return
        for qualname in self.graph.methods_named(method):
            if qualname == self.node.qualname:
                continue
            self._add(qualname, call, via_index=True)


def _function_locals(func: _FuncNode) -> FrozenSet[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                names.update(assigned_names(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(assigned_names(node.target))
        elif isinstance(node, ast.comprehension):
            names.update(assigned_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names.update(assigned_names(item.optional_vars))
    return frozenset(names)


def _function_params(func: _FuncNode) -> FrozenSet[str]:
    arguments = func.args
    every = [
        *arguments.posonlyargs,
        *arguments.args,
        *arguments.kwonlyargs,
        *([arguments.vararg] if arguments.vararg else []),
        *([arguments.kwarg] if arguments.kwarg else []),
    ]
    return frozenset(arg.arg for arg in every)


def build_call_graph(modules: Mapping[str, ast.Module]) -> CallGraph:
    """Build the call graph of ``module name -> parsed tree``."""
    graph = CallGraph()
    method_index: Dict[str, Set[str]] = {}

    # Pass 1: index every definition.
    for module, tree in sorted(modules.items()):
        graph.imports[module] = build_import_map(module, tree)
        graph.module_vars[module] = _module_variables(tree)
        for statement in tree.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                qualname = f"{module}.{statement.name}"
                graph.nodes[qualname] = FunctionNode(
                    qualname, module, None, statement.name, statement
                )
            elif isinstance(statement, ast.ClassDef):
                class_qualname = f"{module}.{statement.name}"
                graph.class_inits.setdefault(class_qualname, None)
                for member in statement.body:
                    if not isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    qualname = f"{class_qualname}.{member.name}"
                    graph.nodes[qualname] = FunctionNode(
                        qualname,
                        module,
                        statement.name,
                        member.name,
                        member,
                    )
                    if member.name == "__init__":
                        graph.class_inits[class_qualname] = qualname
                    if not member.name.startswith("__"):
                        method_index.setdefault(member.name, set()).add(
                            qualname
                        )

    graph._method_index = {
        name: tuple(sorted(qualnames))
        for name, qualnames in method_index.items()
    }

    # Pass 2: resolve call sites.
    for qualname in sorted(graph.nodes):
        node = graph.nodes[qualname]
        collector = _CallCollector(
            graph,
            node,
            _function_params(node.func),
            _function_locals(node.func) | _function_params(node.func),
        )
        for statement in node.func.body:
            collector.visit(statement)
        graph.edges[qualname] = collector.edges
    return graph
