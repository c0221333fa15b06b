"""Lightweight intra-module call graph for the effect-inference pass.

The effect pass (:mod:`repro.analysis.effects`) is *interprocedural
within one module*: an operator's ``process_edges`` may delegate its
scatter to ``self._helper(...)`` or to a module-level function, and the
inferred effects must follow the call.  This module resolves exactly the
two call shapes that can be resolved soundly without imports:

* ``self.<name>(...)`` where ``<name>`` is a method of the operator class
  or of a same-module base class (single inheritance chains only);
* ``<name>(...)`` where ``<name>`` is a module-level ``def``.

Anything else (attribute-of-attribute calls, imported callables, calls
through locals) is left to the caller, which records an ``unknown``
effect — unresolvable calls make an operator *uncertifiable*, never
silently ignored.  Of imports the graph records only which names are
*nothing but* a module-level ``from ... import``, so that the effect pass
can tell a modelled library helper by the module it really comes from.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["CallTarget", "ModuleCallGraph"]

#: recursion fuel: interprocedural analysis refuses to follow call chains
#: deeper than this (mutual recursion in an operator is wildly out of
#: contract anyway and would otherwise loop the analyzer).
MAX_CALL_DEPTH = 8


@dataclass(frozen=True)
class CallTarget:
    """A statically resolved callee."""

    kind: str  # "method" | "function"
    name: str
    node: ast.FunctionDef


def _bound_name(node: ast.AST) -> str | None:
    """The name ``node`` binds, when it is a binding occurrence of one."""
    if isinstance(node, ast.Name):
        return None if isinstance(node.ctx, ast.Load) else node.id
    if isinstance(node, ast.arg):
        return node.arg
    if isinstance(node, ast.alias):
        return (node.asname or node.name).split(".")[0]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    return None


@dataclass
class ModuleCallGraph:
    """Name-resolution tables for one parsed module."""

    #: module-level functions by name.
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: class name -> {method name -> FunctionDef}, inheritance-resolved
    #: within the module (methods of same-module bases are visible).
    methods: dict[str, dict[str, ast.FunctionDef]] = field(default_factory=dict)
    #: local name -> ``"package.module.name"`` of every module-level ``from
    #: ... import`` whose name nothing else in the module binds (assignment,
    #: parameter, ``def``/``class``, another import — at any depth).  Relative
    #: imports resolve against ``module_name``; without one they are left out.
    imported: dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(cls, tree: ast.Module, module_name: str | None = None) -> "ModuleCallGraph":
        graph = cls()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                graph.functions[node.name] = node
            elif isinstance(node, ast.ImportFrom) and (module_name or not node.level):
                package = module_name.split(".")[: -node.level] if node.level else []
                source = ".".join(package + ([node.module] if node.module else []))
                for alias in node.names:
                    graph.imported[alias.asname or alias.name] = f"{source}.{alias.name}"
        nodes = list(ast.walk(tree))
        bound = Counter(map(_bound_name, nodes))
        graph.imported = {k: v for k, v in graph.imported.items() if bound[k] == 1}
        classes = [n for n in nodes if isinstance(n, ast.ClassDef)]
        own: dict[str, dict[str, ast.FunctionDef]] = {}
        bases: dict[str, list[str]] = {}
        for node in classes:
            own[node.name] = {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            bases[node.name] = [
                b.id if isinstance(b, ast.Name) else b.attr
                for b in node.bases
                if isinstance(b, (ast.Name, ast.Attribute))
            ]
        for name in own:
            graph.methods[name] = cls._resolve_methods(name, own, bases, set())
        return graph

    @staticmethod
    def _resolve_methods(
        name: str,
        own: dict[str, dict[str, ast.FunctionDef]],
        bases: dict[str, list[str]],
        seen: set[str],
    ) -> dict[str, ast.FunctionDef]:
        """MRO-ish method table: own methods shadow same-module bases."""
        if name in seen or name not in own:
            return {}
        seen = seen | {name}
        table: dict[str, ast.FunctionDef] = {}
        for base in bases.get(name, []):
            for meth, fn in ModuleCallGraph._resolve_methods(
                base, own, bases, seen
            ).items():
                table.setdefault(meth, fn)
        table.update(own[name])
        return table

    # ------------------------------------------------------------------
    def resolve_call(
        self, call: ast.Call, class_name: str | None
    ) -> CallTarget | None:
        """Resolve one call expression, or ``None`` when it cannot be.

        ``class_name`` scopes ``self.<name>(...)`` resolution; pass
        ``None`` when analyzing a module-level function.
        """
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and class_name is not None
        ):
            fn = self.methods.get(class_name, {}).get(func.attr)
            if fn is not None:
                return CallTarget(kind="method", name=func.attr, node=fn)
            return None
        if isinstance(func, ast.Name):
            fn = self.functions.get(func.id)
            if fn is not None:
                return CallTarget(kind="function", name=func.id, node=fn)
        return None
