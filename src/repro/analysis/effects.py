"""Interprocedural read/write effect inference over operator code.

The engine's partitioned kernels hand each partition a disjoint
*destination* range, so an :class:`~repro.core.ops.EdgeOperator` is safe
to run under any partition schedule — and eventually under a parallel
backend — exactly when every write it performs stays inside the current
batch's destination slice and combines commutatively.  The shadow
sanitizer checks this per run; this module proves it once, statically.

The pass abstracts each operator method (``process_edges``, ``cond``,
and every same-module helper they reach through the
:class:`~repro.analysis.callgraph.ModuleCallGraph`) into typed effects:

* ``Read(array, index_space)`` — a load from operator state;
* ``Scatter(array, index_space, combine)`` — an unbuffered
  ``np.<ufunc>.at`` update;
* ``Write`` (``assign``/``augassign``) — fancy-indexed stores;
* ``Alloc`` — a fresh local array (writes to it are private);
* ``Escape`` — a store through a closure/global/parameter array;
* ``Unknown`` — anything the analysis cannot model (unresolvable calls,
  rebinding state, un-modelled numpy API).

Index spaces are symbolic: ``dst`` (derived from the batch's destination
ids — provably inside the partition slice), ``src`` (source ids — may
point anywhere), ``const``/``full``/``unknown``.

:func:`classify` folds the effects into the safety lattice::

    partition-pure  <  order-sensitive  <  unknown  <  unsafe

* *partition-pure* — writes only through the destination slice, each
  either a commutative declared-combine scatter, a deduplicated
  first-writer claim, or an idempotent constant store; ``cond`` provably
  returns ``None`` or a parallel boolean mask.  The engine may skip its
  runtime guards and a parallel backend may run partitions concurrently.
* *order-sensitive* — writes stay in-slice but the value depends on the
  batch-internal edge order or on an undeclared/mismatched combine.
* *unknown* — an effect could not be modelled; dynamic guards remain.
* *unsafe* — a write provably leaves the partition slice or escapes
  operator state entirely.

Provable violations additionally surface as graphlint findings GL006 -
GL010 (see :mod:`repro.analysis.rules.effects`).
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field, replace

from .callgraph import MAX_CALL_DEPTH, ModuleCallGraph

__all__ = [
    "SafetyLevel",
    "Effect",
    "Violation",
    "OperatorEffects",
    "analyze_operator",
    "classify",
    "class_combine",
    "UFUNC_COMBINE",
    "LOWERABLE_NUMPY",
    "ORDER_CARRYING_CALLS",
    "PURE_VALUE_CALLABLES",
]


class SafetyLevel(enum.Enum):
    """The safety lattice, ordered by decreasing trust."""

    PARTITION_PURE = "partition-pure"
    ORDER_SENSITIVE = "order-sensitive"
    UNKNOWN = "unknown"
    UNSAFE = "unsafe"

    @property
    def rank(self) -> int:
        return _LEVEL_RANK[self]

    def join(self, other: "SafetyLevel") -> "SafetyLevel":
        """Least upper bound: the less trustworthy of the two."""
        return self if self.rank >= other.rank else other


_LEVEL_RANK = {
    SafetyLevel.PARTITION_PURE: 0,
    SafetyLevel.ORDER_SENSITIVE: 1,
    SafetyLevel.UNKNOWN: 2,
    SafetyLevel.UNSAFE: 3,
}

#: ``np.<ufunc>.at`` scatter -> symbolic combine family (the vocabulary
#: of :data:`repro.core.ops.COMMUTATIVE_COMBINES`, plus ``mul``).
UFUNC_COMBINE = {
    "add": "add",
    "subtract": "add",  # additive-group inverse: still order-free per dst
    "minimum": "min",
    "fmin": "min",
    "maximum": "max",
    "fmax": "max",
    "bitwise_or": "or",
    "logical_or": "or",
    "bitwise_and": "and",
    "logical_and": "and",
    "bitwise_xor": "xor",
    "multiply": "mul",
}

#: combine families whose scatter result is schedule-independent.
_COMMUTATIVE = frozenset({"add", "min", "max", "or", "and", "xor"})

#: numpy constructors returning a *fresh* array (writes to it are local).
_NP_ALLOCATORS = frozenset({
    "zeros", "empty", "ones", "full", "arange", "linspace",
    "zeros_like", "empty_like", "ones_like", "full_like", "copy",
})

#: numpy value functions the analysis models as pure elementwise/shape
#: transforms.  This doubles as the backend-lowerable subset checked by
#: GL010: every entry has a straightforward numba/multiprocessing
#: lowering; anything outside it keeps the operator off the parallel
#: backend.
_NP_VALUE_FUNCS = frozenset({
    "abs", "absolute", "add", "subtract", "multiply", "divide",
    "true_divide", "floor_divide", "mod", "power", "sqrt", "square",
    "sign", "negative", "reciprocal", "exp", "exp2", "expm1", "log",
    "log1p", "log2", "log10", "tanh", "sinh", "cosh", "sin", "cos",
    "clip", "where", "minimum", "maximum", "fmin", "fmax", "floor",
    "ceil", "rint", "round", "trunc", "isnan", "isfinite", "isinf",
    "logical_not", "logical_and", "logical_or", "logical_xor", "invert",
    "bitwise_or", "bitwise_and", "bitwise_xor", "left_shift",
    "right_shift", "asarray", "ascontiguousarray", "atleast_1d",
    "flatnonzero", "nonzero", "count_nonzero", "searchsorted", "concatenate",
    "sum", "prod", "cumsum", "cumprod", "dot", "argmin", "argmax",
    "any", "all", "maximum_reduce", "min", "max", "mean",
    "intersect1d", "union1d", "in1d", "isin", "sort", "argsort",
})

#: numpy API the parallel backend can lower: allocators + value funcs +
#: the specially-modelled calls.  GL010 flags ``np.<name>`` calls inside
#: operator code whose ``<name>`` is not in this set.
LOWERABLE_NUMPY = frozenset(
    _NP_ALLOCATORS | _NP_VALUE_FUNCS | {"unique", "uint8", "uint32",
                                        "uint64", "int32", "int64",
                                        "float32", "float64", "bool_"}
)

#: calls whose result threads an *order-carrying* reduction through the
#: batch (prefix scans, sequential folds): bit-reproducible only for one
#: fixed edge order, which the layout dispatch does not promise (GL009).
ORDER_CARRYING_CALLS = frozenset({
    "np.cumsum", "np.cumprod", "numpy.cumsum", "numpy.cumprod",
    "functools.reduce", "reduce", "itertools.accumulate", "accumulate",
    "math.fsum", "fsum",
})

#: ``self.<attr>(...)`` callables the pass may assume are pure value
#: functions of their arguments (no state writes, deterministic).
#: ``weight_fn`` is :class:`repro.graph.weights.WeightFn` — a hash of the
#: endpoint ids — used by the SPMV and Bellman-Ford operators.
PURE_VALUE_CALLABLES = frozenset({"weight_fn"})

#: in-place mutating ndarray methods (a call on ``self.<attr>`` through
#: one of these is a whole-array write).
_MUTATING_METHODS = frozenset({
    "fill", "sort", "partition", "put", "resize", "itemset", "setflags",
})

#: value-preserving ndarray methods: same symbolic value as the receiver.
_IDENTITY_METHODS = frozenset({"astype", "view", "ravel", "reshape", "flatten"})

#: scalar-producing ndarray methods.
_SCALAR_METHODS = frozenset({
    "any", "all", "sum", "max", "min", "mean", "item", "tobytes", "prod",
    "argmin", "argmax", "size", "get",
})

_SAFE_BUILTINS = frozenset({
    "len", "int", "float", "bool", "abs", "min", "max", "range",
    "enumerate", "zip", "sorted", "reversed", "isinstance", "type",
    "getattr", "vars", "repr", "str", "print", "sum", "tuple", "list",
    "dict", "set", "frozenset", "id", "hash",
})


# ----------------------------------------------------------------------
# abstract values and effects
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AbsVal:
    """Abstract value of one expression.

    ``space`` tracks which id family an array's *elements* belong to
    (``src``/``dst`` for the batch id arrays and their subsets), or
    ``value``/``bool``/``none``/``unknown`` otherwise.  ``parallel``
    means "same length as the batch arrays" (what a ``cond`` mask must
    be); ``unique`` means provably duplicate-free; ``attr`` names the
    operator attribute this value aliases, if any; ``fresh`` marks a
    locally allocated array.
    """

    space: str = "value"
    parallel: bool = False
    unique: bool = False
    constant: bool = False
    attr: str | None = None
    fresh: bool = False


_VALUE = AbsVal()
_NONE = AbsVal(space="none")
_UNKNOWN = AbsVal(space="unknown")


@dataclass(frozen=True)
class Effect:
    """One abstracted statement effect on operator state."""

    kind: str  # read|scatter|assign|augassign|alloc|escape|order|nonportable|unknown
    array: str = ""
    space: str = "unknown"  # src|dst|const|full|mask|unknown|-
    combine: str | None = None
    unique: bool = False
    constant: bool = False
    detail: str = ""
    line: int = 0
    col: int = 0

    def render(self) -> str:
        base = f"{self.kind.capitalize()}({self.array or self.detail}"
        if self.kind in ("read", "scatter", "assign", "augassign", "escape"):
            base += f", {self.space}"
        if self.combine is not None:
            base += f", combine={self.combine}"
        return base + ")"


@dataclass(frozen=True)
class Violation:
    """One provable defect, keyed by its GL rule code."""

    code: str
    line: int
    col: int
    message: str


@dataclass
class OperatorEffects:
    """The inferred effect summary of one operator class."""

    class_name: str
    combine: str | None
    effects: list[Effect] = field(default_factory=list)
    level: SafetyLevel = SafetyLevel.UNKNOWN
    reasons: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    #: whether ``cond`` provably returns None or a parallel boolean mask.
    cond_proved: bool = True
    #: whether ``cond`` is additionally proved to write nothing and to
    #: read the arrays the operator writes only at the ids it is handed
    #: (``self.x[dst_ids]``): its answer for a vertex then cannot depend
    #: on what another partition's batch wrote, so the engine may
    #: evaluate it for a run of partitions before the first batch runs.
    cond_local: bool = True

    def written_arrays(self) -> dict[str, set[str]]:
        """attr -> set of index spaces written through it."""
        out: dict[str, set[str]] = {}
        for eff in self.effects:
            if eff.kind in ("scatter", "assign", "augassign"):
                out.setdefault(eff.array, set()).add(eff.space)
        return out


# ----------------------------------------------------------------------
# static class metadata
# ----------------------------------------------------------------------
def class_combine(graph: ModuleCallGraph, tree: ast.Module, name: str) -> str | None:
    """The ``combine`` declared on a class (or same-module base), statically."""
    classes = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }

    def lookup(cls_name: str, seen: frozenset[str]) -> str | None:
        node = classes.get(cls_name)
        if node is None or cls_name in seen:
            return None
        for item in node.body:
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name) and target.id == "combine":
                        if isinstance(item.value, ast.Constant):
                            return item.value.value
                        return None
            elif isinstance(item, ast.AnnAssign):
                if (
                    isinstance(item.target, ast.Name)
                    and item.target.id == "combine"
                    and isinstance(item.value, ast.Constant)
                ):
                    return item.value.value
        for base in node.bases:
            base_name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if base_name:
                found = lookup(base_name, seen | {cls_name})
                if found is not None:
                    return found
        return None

    return lookup(name, frozenset())


def _mutable_init_attrs(init: ast.FunctionDef | None) -> list[str]:
    """Attributes assigned a mutable container in ``__init__`` (GL003 shape)."""
    if init is None:
        return []
    from .rules.state import _is_mutable_container

    out = []
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        attrs = [
            t.attr
            for t in node.targets
            if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        ]
        if attrs and _is_mutable_container(node.value):
            out.extend(attrs)
    return out


# ----------------------------------------------------------------------
# the abstract evaluator
# ----------------------------------------------------------------------
class _TupleVal:
    """Abstract value of a tuple expression / multi-return call."""

    def __init__(self, items: list[AbsVal]) -> None:
        self.items = items


def _attr_chain(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _Analyzer:
    """Flow-approximate symbolic execution of one operator's methods."""

    def __init__(
        self,
        graph: ModuleCallGraph,
        class_name: str | None,
        effects: list[Effect],
        depth: int = 0,
    ) -> None:
        self.graph = graph
        self.class_name = class_name
        self.effects = effects
        self.depth = depth
        self.returns: list[AbsVal] = []
        self.fresh_locals: set[str] = set()

    # -- effect emission -----------------------------------------------
    def _emit(self, node: ast.AST, **kw) -> None:
        self.effects.append(
            Effect(
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", -1) + 1,
                **kw,
            )
        )

    def _unknown(self, node: ast.AST, reason: str) -> AbsVal:
        self._emit(node, kind="unknown", detail=reason)
        return _UNKNOWN

    def _use(self, node: ast.AST, val: AbsVal) -> AbsVal:
        """Consume a value generically; bare self-attr loads become full reads."""
        if val.attr is not None:
            self._emit(node, kind="read", array=val.attr, space="full")
        return val

    # -- function entry -------------------------------------------------
    def run(self, fn: ast.FunctionDef, args: dict[str, AbsVal]) -> AbsVal:
        env: dict[str, AbsVal] = dict(args)
        for name, val in env.items():
            if val.fresh:
                self.fresh_locals.add(name)
        self._block(fn.body, env)
        if not self.returns:
            return _NONE
        out = self.returns[0]
        for other in self.returns[1:]:
            out = _join(out, other)
        return out

    # -- statements -----------------------------------------------------
    def _block(self, stmts: list[ast.stmt], env: dict[str, AbsVal]) -> None:
        for stmt in stmts:
            self._stmt(stmt, env)

    def _stmt(self, node: ast.stmt, env: dict[str, AbsVal]) -> None:
        if isinstance(node, ast.Assign):
            val = self._eval(node.value, env)
            for target in node.targets:
                self._assign_target(target, val, node, env)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                val = self._eval(node.value, env)
                self._assign_target(node.target, val, node, env)
        elif isinstance(node, ast.AugAssign):
            self._aug_assign(node, env)
        elif isinstance(node, ast.Expr):
            self._eval(node.value, env)
        elif isinstance(node, ast.Return):
            if node.value is None:
                self.returns.append(_NONE)
            else:
                val = self._eval(node.value, env)
                self.returns.append(val if isinstance(val, AbsVal) else _UNKNOWN)
        elif isinstance(node, ast.If):
            self._eval(node.test, env)
            env_true = dict(env)
            env_false = dict(env)
            self._block(node.body, env_true)
            self._block(node.orelse, env_false)
            for name in set(env_true) | set(env_false):
                a = env_true.get(name)
                b = env_false.get(name)
                if a is None or b is None:
                    env[name] = _join(a or _UNKNOWN, b or _UNKNOWN)
                else:
                    env[name] = _join(a, b)
        elif isinstance(node, (ast.For, ast.While)):
            if isinstance(node, ast.For):
                self._eval(node.iter, env)
                self._bind_loop_target(node.target, env)
            else:
                self._eval(node.test, env)
            body_env = dict(env)
            self._block(node.body, body_env)
            self._block(node.orelse, body_env)
            for name, val in body_env.items():
                env[name] = _join(env.get(name, val), val)
        elif isinstance(node, ast.With):
            for item in node.items:
                self._eval(item.context_expr, env)
            self._block(node.body, env)
        elif isinstance(node, ast.Try):
            self._block(node.body, env)
            for handler in node.handlers:
                self._block(handler.body, env)
            self._block(node.orelse, env)
            self._block(node.finalbody, env)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self._eval(node.exc, env)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._unknown(node, f"nested function {node.name!r} is not analyzed")
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                env[name] = AbsVal(space="unknown")
        elif isinstance(node, (ast.Pass, ast.Break, ast.Continue, ast.Import,
                               ast.ImportFrom, ast.Assert, ast.Delete)):
            if isinstance(node, ast.Assert):
                self._eval(node.test, env)
        else:
            self._unknown(node, f"un-modelled statement {type(node).__name__}")

    def _bind_loop_target(self, target: ast.expr, env: dict[str, AbsVal]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = _UNKNOWN
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._bind_loop_target(elt, env)

    # -- assignment targets ---------------------------------------------
    def _assign_target(
        self, target: ast.expr, val, node: ast.stmt, env: dict[str, AbsVal]
    ) -> None:
        if isinstance(target, ast.Name):
            if isinstance(val, _TupleVal):
                env[target.id] = _UNKNOWN
            else:
                env[target.id] = val
                if val.fresh:
                    self.fresh_locals.add(target.id)
                elif target.id in self.fresh_locals:
                    self.fresh_locals.discard(target.id)
            return
        if isinstance(target, ast.Tuple):
            items = (
                val.items
                if isinstance(val, _TupleVal) and len(val.items) == len(target.elts)
                else [_UNKNOWN] * len(target.elts)
            )
            for elt, item in zip(target.elts, items):
                self._assign_target(elt, item, node, env)
            return
        if isinstance(target, ast.Subscript):
            self._subscript_write(
                target, node, env,
                kind="assign",
                value=val if isinstance(val, AbsVal) else _UNKNOWN,
            )
            return
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                self._unknown(
                    node, f"rebinds operator state self.{target.attr} mid-phase"
                )
            else:
                self._unknown(node, "assignment through an attribute chain")
            return
        if isinstance(target, ast.Starred):
            self._assign_target(target.value, _UNKNOWN, node, env)
            return
        self._unknown(node, f"un-modelled assignment target {type(target).__name__}")

    def _aug_assign(self, node: ast.AugAssign, env: dict[str, AbsVal]) -> None:
        val = self._eval(node.value, env)
        if isinstance(node.target, ast.Name):
            base = env.get(node.target.id, _UNKNOWN)
            env[node.target.id] = _join(base, val if isinstance(val, AbsVal) else _UNKNOWN)
            return
        if isinstance(node.target, ast.Subscript):
            self._subscript_write(node.target, node, env, kind="augassign",
                                  value=val if isinstance(val, AbsVal) else _UNKNOWN)
            return
        self._unknown(node, "augmented assignment through an attribute")

    def _subscript_write(
        self,
        target: ast.Subscript,
        node: ast.stmt,
        env: dict[str, AbsVal],
        *,
        kind: str,
        value: AbsVal,
        combine: str | None = None,
    ) -> None:
        idx = self._eval(target.slice, env)
        idx = idx if isinstance(idx, AbsVal) else _UNKNOWN
        space = _index_space(idx)
        base = target.value
        attr = self._state_target(base, env)
        if attr is not None:
            self._emit(
                node, kind=kind, array=attr, space=space, combine=combine,
                unique=idx.unique, constant=value.constant,
            )
            return
        if isinstance(base, ast.Name):
            if base.id in self.fresh_locals:
                self._emit(node, kind="alloc", array=base.id, space=space)
                return
            if base.id in env:
                # a parameter or derived local that is not a fresh array:
                # writing through it mutates engine-owned batch arrays.
                self._emit(node, kind="escape", array=base.id, space=space,
                           detail="store through a parameter-derived array")
                return
            self._emit(node, kind="escape", array=base.id, space=space,
                       detail="store through a closure/global name")
            return
        self._unknown(node, "store through an un-modelled subscript base")

    def _state_target(self, base: ast.expr, env: dict[str, AbsVal]) -> str | None:
        """Attribute name when ``base`` denotes operator state, else None."""
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            return base.attr
        if isinstance(base, ast.Name):
            aliased = env.get(base.id)
            if aliased is not None and aliased.attr is not None and not aliased.fresh:
                return aliased.attr
        return None

    # -- expressions ----------------------------------------------------
    def _eval(self, node: ast.expr, env: dict[str, AbsVal]):
        if isinstance(node, ast.Constant):
            return AbsVal(constant=True, space="none" if node.value is None else "value")
        if isinstance(node, ast.Name):
            return env.get(node.id, _VALUE)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Compare):
            vals = [self._eval(node.left, env)] + [
                self._eval(c, env) for c in node.comparators
            ]
            vals = [self._use(node, v) for v in vals if isinstance(v, AbsVal)]
            return AbsVal(space="bool", parallel=any(v.parallel for v in vals))
        if isinstance(node, ast.BoolOp):
            vals = [self._eval(v, env) for v in node.values]
            vals = [self._use(node, v) for v in vals if isinstance(v, AbsVal)]
            return AbsVal(space="bool", parallel=any(v.parallel for v in vals))
        if isinstance(node, ast.UnaryOp):
            val = self._eval(node.operand, env)
            val = self._use(node, val) if isinstance(val, AbsVal) else _UNKNOWN
            if isinstance(node.op, (ast.Not, ast.Invert)):
                space = "bool" if val.space in ("bool", "value") else val.space
                return AbsVal(space=space, parallel=val.parallel)
            return AbsVal(space="value", parallel=val.parallel,
                          constant=val.constant)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            left = self._use(node, left) if isinstance(left, AbsVal) else _UNKNOWN
            right = self._use(node, right) if isinstance(right, AbsVal) else _UNKNOWN
            space = "bool" if (
                isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor))
                and left.space == "bool" and right.space == "bool"
            ) else "value"
            return AbsVal(space=space, parallel=left.parallel or right.parallel,
                          constant=left.constant and right.constant)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            a = self._eval(node.body, env)
            b = self._eval(node.orelse, env)
            a = a if isinstance(a, AbsVal) else _UNKNOWN
            b = b if isinstance(b, AbsVal) else _UNKNOWN
            return _join(a, b)
        if isinstance(node, ast.Tuple):
            return _TupleVal([
                v if isinstance(v, AbsVal) else _UNKNOWN
                for v in (self._eval(elt, env) for elt in node.elts)
            ])
        if isinstance(node, (ast.List, ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
            # a container literal is freshly allocated: writes into it are
            # private to the call, not an effect escape.
            return AbsVal(space="value", fresh=True)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            comp_env = dict(env)
            for gen in node.generators:
                self._eval(gen.iter, comp_env)
                self._bind_loop_target(gen.target, comp_env)
                for cond in gen.ifs:
                    self._eval(cond, comp_env)
            if isinstance(node, ast.DictComp):
                self._eval(node.key, comp_env)
                self._eval(node.value, comp_env)
            else:
                self._eval(node.elt, comp_env)
            return _VALUE
        if isinstance(node, ast.Lambda):
            return _VALUE
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            return _VALUE
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part, env)
            return AbsVal(space="slice")
        return self._unknown(node, f"un-modelled expression {type(node).__name__}")

    def _eval_attribute(self, node: ast.Attribute, env: dict[str, AbsVal]) -> AbsVal:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return AbsVal(attr=node.attr)
        base = self._eval(node.value, env)
        base = base if isinstance(base, AbsVal) else _UNKNOWN
        # plain data attributes (x.size, x.shape, x.dtype...) are scalars.
        return AbsVal(space="value", parallel=False)

    def _eval_subscript(self, node: ast.Subscript, env: dict[str, AbsVal]) -> AbsVal:
        base = self._eval(node.value, env)
        idx = self._eval(node.slice, env)
        base = base if isinstance(base, AbsVal) else _UNKNOWN
        idx = idx if isinstance(idx, AbsVal) else _UNKNOWN
        if base.attr is not None:
            self._emit(node, kind="read", array=base.attr, space=_index_space(idx))
            return AbsVal(space="value", parallel=idx.parallel)
        if base.space in ("src", "dst"):
            # any subscript of an id array yields a subset of those ids.
            return AbsVal(
                space=base.space,
                unique=base.unique,
                parallel=idx.space == "slice" and base.parallel,
            )
        return AbsVal(space="value", parallel=base.parallel and idx.space == "slice")

    # -- calls ----------------------------------------------------------
    def _eval_call(self, node: ast.Call, env: dict[str, AbsVal]):
        chain = _attr_chain(node.func)

        if chain in ORDER_CARRYING_CALLS:
            for arg in node.args:
                val = self._eval(arg, env)
                if isinstance(val, AbsVal):
                    self._use(node, val)
            self._emit(node, kind="order", detail=chain)
            return _VALUE

        if chain is not None:
            parts = chain.split(".")
            if parts[0] in ("np", "numpy") and len(parts) >= 2:
                return self._eval_numpy_call(node, parts, env)

        # self.<name>(...) or module-level function: interprocedural.
        target = self.graph.resolve_call(node, self.class_name)
        if target is not None:
            return self._eval_resolved_call(node, target, env)

        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            if func.attr in PURE_VALUE_CALLABLES:
                vals = [self._eval(a, env) for a in node.args]
                vals = [v for v in vals if isinstance(v, AbsVal)]
                return AbsVal(space="value",
                              parallel=any(v.parallel for v in vals))
            return self._unknown(
                node, f"unresolvable call through self.{func.attr}"
            )
        if isinstance(func, ast.Attribute):
            return self._eval_method_call(node, func, env)
        if isinstance(func, ast.Name):
            if func.id in _SAFE_BUILTINS:
                for arg in node.args:
                    val = self._eval(arg, env)
                    if isinstance(val, AbsVal):
                        self._use(node, val)
                return _VALUE
            if func.id in env:
                return self._unknown(node, f"call through local {func.id!r}")
            return self._unknown(node, f"unresolvable call to {func.id!r}")
        if isinstance(func, ast.Lambda):
            return _VALUE
        return self._unknown(node, "un-modelled call expression")

    def _eval_numpy_call(
        self, node: ast.Call, parts: list[str], env: dict[str, AbsVal]
    ):
        # np.<ufunc>.at(target, idx, val): the unbuffered scatter.
        if len(parts) == 3 and parts[2] == "at":
            return self._eval_scatter(node, parts[1], env)
        name = parts[1]
        if len(parts) == 2 and name == "unique":
            arg = self._eval(node.args[0], env) if node.args else _UNKNOWN
            arg = arg if isinstance(arg, AbsVal) else _UNKNOWN
            if arg.attr is not None:
                arg = self._use(node, arg)
            space = arg.space if arg.space in ("src", "dst") else "value"
            first = AbsVal(space=space, unique=True)
            # one extra return per requested return_index/inverse/counts
            # flag (keyword or positional), so tuple unpacking lines up.
            extras = len(node.args) - 1 + sum(
                1
                for kw in node.keywords
                if kw.arg is not None and kw.arg.startswith("return_")
            )
            if extras <= 0:
                return first
            return _TupleVal([first] + [_VALUE] * extras)
        if len(parts) == 2 and name in _NP_ALLOCATORS:
            for arg in node.args:
                self._eval(arg, env)
            for kw in node.keywords:
                self._eval(kw.value, env)
            return AbsVal(space="value", fresh=True)
        if len(parts) == 2 and name in _NP_VALUE_FUNCS:
            vals = []
            for arg in node.args:
                val = self._eval(arg, env)
                if isinstance(val, AbsVal):
                    vals.append(self._use(node, val))
            for kw in node.keywords:
                self._eval(kw.value, env)
            boolish = name.startswith(("is", "logical")) or name == "invert"
            return AbsVal(
                space="bool" if boolish else "value",
                parallel=any(v.parallel for v in vals),
            )
        if len(parts) == 2 and name in LOWERABLE_NUMPY:
            for arg in node.args:
                self._eval(arg, env)
            return _VALUE
        # numpy API outside the lowerable subset: portability violation.
        for arg in node.args:
            self._eval(arg, env)
        self._emit(node, kind="nonportable", detail=".".join(parts))
        return _VALUE

    def _eval_scatter(self, node: ast.Call, ufunc: str, env: dict[str, AbsVal]):
        if len(node.args) < 2:
            return self._unknown(node, f"malformed np.{ufunc}.at call")
        combine = UFUNC_COMBINE.get(ufunc)
        idx = self._eval(node.args[1], env)
        idx = idx if isinstance(idx, AbsVal) else _UNKNOWN
        for arg in node.args[2:]:
            val = self._eval(arg, env)
            if isinstance(val, AbsVal):
                self._use(node, val)
        target = node.args[0]
        attr = self._state_target(target, env)
        space = _index_space(idx)
        if attr is not None:
            self._emit(node, kind="scatter", array=attr, space=space,
                       combine=combine, unique=idx.unique)
            return _NONE
        if isinstance(target, ast.Name):
            if target.id in self.fresh_locals:
                self._emit(node, kind="alloc", array=target.id, space=space)
                return _NONE
            if target.id in env:
                self._emit(node, kind="escape", array=target.id, space=space,
                           detail="scatter into a parameter-derived array")
                return _NONE
            self._emit(node, kind="escape", array=target.id, space=space,
                       detail="scatter into a closure/global array")
            return _NONE
        self._unknown(node, "scatter into an un-modelled target")
        return _NONE

    def _eval_resolved_call(self, node: ast.Call, target, env: dict[str, AbsVal]):
        if self.depth >= MAX_CALL_DEPTH:
            return self._unknown(node, f"call chain deeper than {MAX_CALL_DEPTH}")
        fn = target.node
        params = [a.arg for a in fn.args.args]
        if target.kind == "method" and params and params[0] == "self":
            params = params[1:]
        args: dict[str, AbsVal] = {}
        for name, arg in zip(params, node.args):
            val = self._eval(arg, env)
            args[name] = val if isinstance(val, AbsVal) else _UNKNOWN
        for kw in node.keywords:
            val = self._eval(kw.value, env)
            if kw.arg is not None:
                args[kw.arg] = val if isinstance(val, AbsVal) else _UNKNOWN
        for name in params:
            args.setdefault(name, _VALUE)
        if fn.args.vararg or fn.args.kwarg:
            for extra in (fn.args.vararg, fn.args.kwarg):
                if extra is not None:
                    args[extra.arg] = _UNKNOWN
        sub = _Analyzer(
            self.graph,
            self.class_name if target.kind == "method" else None,
            self.effects,
            depth=self.depth + 1,
        )
        return sub.run(fn, args)

    def _eval_method_call(
        self, node: ast.Call, func: ast.Attribute, env: dict[str, AbsVal]
    ):
        base = self._eval(func.value, env)
        base = base if isinstance(base, AbsVal) else _UNKNOWN
        for arg in node.args:
            val = self._eval(arg, env)
            if isinstance(val, AbsVal):
                self._use(node, val)
        method = func.attr
        if method in _IDENTITY_METHODS:
            # value-preserving transform; a view/copy no longer aliases state.
            return replace(base, attr=None, fresh=False)
        if method == "copy":
            return replace(base, attr=None, fresh=True)
        if method in _SCALAR_METHODS:
            return _VALUE
        if base.attr is not None:
            if method in _MUTATING_METHODS:
                self._emit(node, kind="assign", array=base.attr, space="full")
                return _NONE
            return self._unknown(
                node, f"un-modelled method self.{base.attr}.{method}()"
            )
        return AbsVal(space="value", parallel=base.parallel)


def _join(a: AbsVal, b: AbsVal) -> AbsVal:
    if a == b:
        return a
    space = a.space if a.space == b.space else (
        # None-or-mask is the cond contract; keep the mask side.
        b.space if a.space == "none" else a.space if b.space == "none" else "unknown"
    )
    return AbsVal(
        space=space,
        parallel=a.parallel and b.parallel,
        unique=a.unique and b.unique,
        constant=a.constant and b.constant,
        attr=a.attr if a.attr == b.attr else None,
    )


def _index_space(idx: AbsVal) -> str:
    if idx.space in ("src", "dst"):
        return idx.space
    if idx.constant:
        return "const"
    if idx.space == "slice":
        return "full"
    if idx.space == "bool":
        return "mask"
    return "unknown"


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def classify(
    summary: OperatorEffects,
    *,
    blind_attrs: list[str] | None = None,
) -> OperatorEffects:
    """Fold effects into a lattice level + violations, in place."""
    level = SafetyLevel.PARTITION_PURE
    reasons: list[str] = []
    violations: list[Violation] = []
    declared = summary.combine
    cls = summary.class_name

    reads_by_array: dict[str, set[str]] = {}
    for eff in summary.effects:
        if eff.kind == "read":
            reads_by_array.setdefault(eff.array, set()).add(eff.space)

    flagged_alias: set[str] = set()
    for eff in summary.effects:
        if eff.kind == "unknown":
            level = level.join(SafetyLevel.UNKNOWN)
            reasons.append(f"unmodelled effect: {eff.detail}")
        elif eff.kind == "nonportable":
            level = level.join(SafetyLevel.UNKNOWN)
            reasons.append(f"numpy API outside the lowerable subset: {eff.detail}")
            violations.append(Violation(
                "GL010", eff.line, eff.col,
                f"{cls} calls {eff.detail}, which is outside the backend-"
                "lowerable numpy subset; the parallel backend cannot "
                "execute this operator",
            ))
        elif eff.kind == "order":
            level = level.join(SafetyLevel.ORDER_SENSITIVE)
            reasons.append(f"order-carrying reduction: {eff.detail}")
            violations.append(Violation(
                "GL009", eff.line, eff.col,
                f"{cls} threads values through {eff.detail}, whose result "
                "depends on the batch-internal edge order; the layout "
                "dispatch does not fix that order across traversals",
            ))
        elif eff.kind == "escape":
            level = level.join(SafetyLevel.UNSAFE)
            reasons.append(f"effect escape through {eff.array!r} ({eff.detail})")
            violations.append(Violation(
                "GL008", eff.line, eff.col,
                f"{cls} writes through {eff.array!r}, a {eff.detail.split()[-2]}"
                f"-scoped array outside operator state; snapshots, the "
                "journal and the shadow sanitizer cannot see this write",
            ))
        elif eff.kind in ("scatter", "assign", "augassign"):
            if eff.space in ("src", "const"):
                level = level.join(SafetyLevel.UNSAFE)
                where = (
                    "source ids, which cross partition boundaries"
                    if eff.space == "src"
                    else "a fixed slot every partition writes"
                )
                reasons.append(f"out-of-slice write to {eff.array} via {where}")
                violations.append(Violation(
                    "GL006", eff.line, eff.col,
                    f"{cls} writes {eff.array} through {where}; partitioned "
                    "execution only guarantees disjointness for destination-"
                    "sliced writes",
                ))
                continue
            if eff.space != "dst":
                level = level.join(SafetyLevel.UNKNOWN)
                reasons.append(
                    f"write to {eff.array} through {eff.space!r} index space "
                    "cannot be proven in-slice"
                )
                continue
            # in-slice write; now judge the combine / dedup story.
            aliased = bool(
                reads_by_array.get(eff.array, set()) & {"src", "full", "unknown", "mask"}
            )
            if eff.kind == "augassign":
                level = level.join(SafetyLevel.UNSAFE)
                reasons.append(
                    f"buffered fancy-indexed accumulation on {eff.array} "
                    "drops duplicate destinations (GL001)"
                )
            elif eff.kind == "scatter":
                ok_combine = eff.combine in _COMMUTATIVE
                if ok_combine and (not aliased or declared == eff.combine):
                    pass  # partition-pure scatter
                elif not ok_combine:
                    level = level.join(SafetyLevel.ORDER_SENSITIVE)
                    reasons.append(
                        f"scatter on {eff.array} uses a non-commutative "
                        f"combine ({eff.combine or 'un-mapped ufunc'})"
                    )
                else:
                    level = level.join(SafetyLevel.ORDER_SENSITIVE)
                    reasons.append(
                        f"{eff.array} is read cross-partition and scattered "
                        f"with combine {eff.combine!r} but the operator "
                        f"declares combine={declared!r}"
                    )
                    if eff.array not in flagged_alias:
                        flagged_alias.add(eff.array)
                        violations.append(Violation(
                            "GL007", eff.line, eff.col,
                            f"{cls} both reads {eff.array} outside the "
                            f"destination slice and scatters into it with "
                            f"{eff.combine!r}, but declares combine="
                            f"{declared!r}; the sanitizer treats such "
                            "overlaps as races unless the combine is "
                            "declared and matches",
                        ))
            else:  # assign
                if eff.unique or eff.constant:
                    if aliased and declared not in _COMMUTATIVE:
                        level = level.join(SafetyLevel.ORDER_SENSITIVE)
                        reasons.append(
                            f"{eff.array} is read cross-partition and "
                            "directly assigned without a declared combine"
                        )
                        if eff.array not in flagged_alias:
                            flagged_alias.add(eff.array)
                            violations.append(Violation(
                                "GL007", eff.line, eff.col,
                                f"{cls} reads {eff.array} outside the "
                                "destination slice and assigns into it "
                                "without declaring a commutative combine",
                            ))
                else:
                    level = level.join(SafetyLevel.ORDER_SENSITIVE)
                    reasons.append(
                        f"direct assignment into {eff.array} without "
                        "deduplicated indices: last writer within the batch "
                        "depends on edge order"
                    )

    if blind_attrs:
        level = level.join(SafetyLevel.UNKNOWN)
        reasons.append(
            "mutable non-array state invisible to the default snapshot: "
            + ", ".join(sorted(blind_attrs))
        )
    if not summary.cond_proved:
        level = level.join(SafetyLevel.UNKNOWN)
        reasons.append(
            "cond() does not provably return None or a parallel boolean mask"
        )

    summary.level = level
    summary.reasons = reasons
    summary.violations = violations
    return summary


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def analyze_operator(
    tree: ast.Module,
    class_name: str,
    *,
    graph: ModuleCallGraph | None = None,
    declared_combine: str | None | type(...) = ...,
) -> OperatorEffects:
    """Infer and classify the effects of one operator class in ``tree``.

    ``declared_combine`` defaults to the statically declared ``combine``
    class attribute (same-module inheritance respected); pass the live
    class's value when analyzing at runtime.
    """
    graph = graph or ModuleCallGraph.build(tree)
    methods = graph.methods.get(class_name, {})
    if declared_combine is ...:
        declared_combine = class_combine(graph, tree, class_name)
    summary = OperatorEffects(class_name=class_name, combine=declared_combine)

    process = methods.get("process_edges")
    if process is None:
        summary.effects.append(Effect(kind="unknown", detail="no process_edges body"))
    else:
        analyzer = _Analyzer(graph, class_name, summary.effects)
        params = [a.arg for a in process.args.args]
        args = {}
        if len(params) >= 2:
            args[params[1]] = AbsVal(space="src", parallel=True)
        if len(params) >= 3:
            args[params[2]] = AbsVal(space="dst", parallel=True)
        analyzer.run(process, args)

    cond = methods.get("cond")
    if cond is not None:
        analyzer = _Analyzer(graph, class_name, summary.effects)
        params = [a.arg for a in cond.args.args]
        args = {}
        if len(params) >= 2:
            args[params[1]] = AbsVal(space="dst", parallel=True)
        written = summary.written_arrays()
        own = len(summary.effects)  # cond's effects are appended from here
        result = analyzer.run(cond, args)
        mask_ok = result.space == "none" or (
            result.space == "bool" and result.parallel
        )
        summary.cond_proved = mask_ok and not any(
            e.kind in ("unknown", "escape") for e in summary.effects
        )
        summary.cond_local = summary.cond_proved and not any(
            e.kind in ("scatter", "assign", "augassign")
            or (e.kind == "read" and e.array in written and e.space != "dst")
            for e in summary.effects[own:]
        )

    init = methods.get("__init__")
    has_override = "snapshot" in methods and "restore" in methods
    blind = [] if has_override else _mutable_init_attrs(init)
    return classify(summary, blind_attrs=blind)
