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
  ``np.<ufunc>.at`` update, or a :data:`HELPER_COMBINE` library loop;
* ``Write`` (``assign``/``augassign``) — fancy-indexed stores, and the
  whole-array store of an ``out=`` keyword;
* ``Alloc`` — a fresh local array (writes to it are private);
* ``Escape`` — a store through a closure/global/parameter array;
* ``Unknown`` — anything outside the grammar below.

**The grammar is closed.**  One straight-line pass is sound only for the
forms it actually models, so the analyzer accepts exactly the forms the
shipped operators and the lint corpus use — the statement and
expression kinds in :attr:`_Analyzer._STATEMENTS` /
:attr:`_Analyzer._EXPRESSIONS`, and the call shapes and keywords of
:meth:`_Analyzer._eval_call` — and *everything else* (loops, ``with``,
``try``, lambdas, conditional expressions, starred arguments,
comprehensions, a keyword no table names, …) takes the one
conservative exit: an ``unknown`` effect, hence level ``unknown``,
runtime guards on and no backend admission.  A form is admitted by
adding it to a table together with a model of it, never by default.

Index spaces are symbolic: ``dst`` (derived from the batch's destination
ids — provably inside the partition slice), ``src`` (source ids — may
point anywhere), ``const`` (one fixed slot), ``full`` (the whole array)
or ``unknown``.

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

A partition-pure operator is also *edge-local* when the split rule of
:func:`analyze_operator` proves one ``process_edges`` call over a run of
partitions the same as one per partition: the engine then merges them.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field, replace

from ..core.ops import COMMUTATIVE_COMBINES
from .callgraph import MAX_CALL_DEPTH, ModuleCallGraph
from .rules import attr_chain

__all__ = [
    "SafetyLevel",
    "Effect",
    "Violation",
    "OperatorEffects",
    "analyze_operator",
    "classify",
    "class_combine",
    "UFUNC_COMBINE",
    "HELPER_COMBINE",
    "LOWERABLE_NUMPY",
    "ORDER_CARRYING_CALLS",
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

#: library scatter loops -> combine: ``helper(acc, dst, x, src[, data])``
#: scatters into ``acc`` in ``dst``'s index space, reads ``x`` in ``src``'s
#: and reads the edge-parallel ``data`` whole.  Recognised only under the
#: name the module imports it by and binds nowhere else
#: (:attr:`ModuleCallGraph.imported`), with four or five positionals and
#: ``acc`` neither ``x`` nor ``data`` (the helper refuses overlapping ones).
HELPER_COMBINE = {"repro.core.ops.scatter_add_gather": "add"}

#: numpy constructors returning a *fresh* array (writes to it are local).
_NP_ALLOCATORS = frozenset({
    "zeros", "empty", "ones", "full", "arange", "linspace",
    "zeros_like", "empty_like", "ones_like", "full_like", "copy",
})

#: numpy value functions the analysis models as pure elementwise/shape
#: transforms, each with the number of positional operands that are
#: *inputs*: one more would be a positional ``out`` (``np.add(a, b,
#: self.x)`` writes ``self.x``), so a longer call is un-modelled.  The
#: names double as the backend-lowerable subset checked by GL010:
#: anything outside keeps the operator off the parallel backend.
_NP_VALUE_FUNCS = {
    **dict.fromkeys((
        "abs", "absolute", "sqrt", "square", "sign", "negative",
        "reciprocal", "exp", "exp2", "expm1", "log", "log1p", "log2",
        "log10", "tanh", "sinh", "cosh", "sin", "cos", "floor", "ceil",
        "rint", "round", "trunc", "isnan", "isfinite", "isinf",
        "logical_not", "invert", "asarray", "ascontiguousarray",
        "atleast_1d", "flatnonzero", "nonzero", "count_nonzero",
        "concatenate", "sum", "prod", "cumsum", "cumprod", "argmin",
        "argmax", "any", "all", "min", "max", "mean", "sort", "argsort",
        "uint8", "uint32", "uint64", "int32", "int64", "float32",
        "float64", "bool_",
    ), 1),
    **dict.fromkeys((
        "add", "subtract", "multiply", "divide", "true_divide",
        "floor_divide", "mod", "power", "minimum", "maximum", "fmin",
        "fmax", "logical_and", "logical_or", "logical_xor", "bitwise_or",
        "bitwise_and", "bitwise_xor", "left_shift", "right_shift",
        "searchsorted", "dot", "intersect1d", "union1d", "in1d", "isin",
    ), 2),
    "clip": 3,
    "where": 3,
}

#: numpy API the parallel backend can lower.  GL010 flags ``np.<name>``
#: calls inside operator code whose ``<name>`` is not in this set.
LOWERABLE_NUMPY = frozenset(_NP_ALLOCATORS | _NP_VALUE_FUNCS.keys() | {"unique"})

#: calls whose result threads an *order-carrying* reduction through the
#: batch (prefix scans, sequential folds): bit-reproducible only for one
#: fixed edge order, which the layout dispatch does not promise (GL009).
ORDER_CARRYING_CALLS = frozenset({
    "np.cumsum", "np.cumprod", "numpy.cumsum", "numpy.cumprod",
    "functools.reduce", "reduce", "itertools.accumulate", "accumulate",
    "math.fsum", "fsum",
})

#: ndarray methods modelled as pure: ``x.astype(dtype)``, ``x.copy()``
#: and the argument-less reductions.  Any other method call — in-place
#: ``fill``/``sort``/``put`` included — is un-modelled.
_VALUE_METHODS = frozenset({
    "astype", "copy", "any", "all", "sum", "max", "min", "mean", "prod",
    "argmin", "argmax", "item",
})

#: builtins that compute a scalar from their operands and touch nothing.
_SAFE_BUILTINS = frozenset({"len", "int", "float", "bool", "abs", "min", "max"})

#: attributes, builtins, numpy functions and methods that read an array whole
#: (lengths, reductions, positions, sorts, sets, joins): they see a batch's cut.
_BATCH_WIDE = frozenset({
    "size", "shape", "nbytes", "len", "int", "float", "bool", "min", "max", "sum", "prod",
    "mean", "any", "all", "argmin", "argmax", "item", "count_nonzero", "nonzero",
    "flatnonzero", "searchsorted", "sort", "argsort", "unique", "concatenate", "cumsum",
    "cumprod", "dot", "intersect1d", "union1d", "in1d", "isin",
})

#: the only keywords a modelled call may carry, by call shape; ``out=``
#: is a whole-array write to its target, the others are read operands.
_KEYWORDS = {
    "allocator": frozenset({"dtype"}),
    "value": frozenset({"out", "where"}),
    "unique": frozenset({"return_index", "return_inverse", "return_counts"}),
    "astype": frozenset({"copy"}),
}


# ----------------------------------------------------------------------
# abstract values and effects
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AbsVal:
    """Abstract value of one expression.

    ``space`` tracks which id family an array's *elements* belong to
    (``src``/``dst`` for the batch id arrays and their subsets), or
    ``value``/``bool``/``none``/``tuple``/``unknown`` otherwise.
    ``parallel`` means "same length as the batch arrays" (what a ``cond``
    mask must be); ``unique`` means provably duplicate-free; ``attr``
    names the operator attribute this value aliases, if any; ``fresh``
    marks a locally allocated array; ``items`` are the element values of
    a tuple expression or a multi-return call.
    """

    space: str = "value"
    parallel: bool = False
    unique: bool = False
    constant: bool = False
    attr: str | None = None
    fresh: bool = False
    items: tuple["AbsVal", ...] = ()


_VALUE = AbsVal()
_NONE = AbsVal(space="none")
_UNKNOWN = AbsVal(space="unknown")


@dataclass(frozen=True)
class Effect:
    """One abstracted statement effect on operator state."""

    kind: str  # read|scatter|assign|augassign|alloc|escape|order|nonportable|unknown
    array: str = ""
    space: str = "unknown"  # src|dst|const|full|unknown
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
    #: why one ``process_edges`` call over a run of partitions could differ
    #: from one per partition; none: the operator is *edge-local*.
    split_reasons: list[str] = field(default_factory=list)

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
                        # a computed combine is an undeclared one.
                        value = item.value
                        return value.value if isinstance(value, ast.Constant) else None
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
class _Analyzer:
    """Straight-line symbolic execution of one operator's methods.

    Statements and expressions dispatch over :attr:`_STATEMENTS` and
    :attr:`_EXPRESSIONS`; a node of any other kind is not approximated
    but reported as an ``unknown`` effect.
    """

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
        #: batch-wide expressions met (a callee shares its caller's list).
        self.batch_wide: list[str] = []

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
        """Consume a value generically; bare self-attr loads (also as
        elements of a tuple) become full reads."""
        if val.attr is not None:
            self._emit(node, kind="read", array=val.attr, space="full")
        for item in val.items:
            self._use(node, item)
        return val

    def _write(
        self, node: ast.AST, target: ast.expr, env: dict[str, AbsVal],
        *, how: str, **effect,
    ) -> None:
        """Record a write whose destination array is the expression
        ``target``: operator state (``self.x`` or a local aliasing it) is
        the modelled case, a fresh local is private, any other name is an
        escape, and any other expression is un-modelled."""
        attr = None
        if isinstance(target, ast.Name):
            attr = env.get(target.id, _VALUE).attr
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            attr = target.attr
        if attr is not None:
            self._emit(node, array=attr, **effect)
        elif not isinstance(target, ast.Name):
            self._unknown(node, f"{how} an un-modelled target")
        elif env.get(target.id, _VALUE).fresh:
            self._emit(node, kind="alloc", array=target.id, space=effect["space"])
        else:
            # a parameter or derived local mutates engine-owned batch
            # arrays; a name bound nowhere in the method is a global.
            scope = "parameter-derived" if target.id in env else "closure/global"
            self._emit(node, kind="escape", array=target.id, space=effect["space"],
                       detail=f"{how} a {scope} array")

    # -- function entry -------------------------------------------------
    def run(self, fn: ast.FunctionDef, args: dict[str, AbsVal]) -> AbsVal:
        self._block(fn.body, dict(args))
        out = self.returns[0] if self.returns else _NONE
        for other in self.returns[1:]:
            out = _join(out, other)
        return out

    # -- statements -----------------------------------------------------
    def _block(self, stmts: list[ast.stmt], env: dict[str, AbsVal]) -> None:
        for stmt in stmts:
            self._stmt(stmt, env)

    def _stmt(self, node: ast.stmt, env: dict[str, AbsVal]) -> None:
        handler = self._STATEMENTS.get(type(node))
        if handler is None:
            self._unknown(node, f"un-modelled statement {type(node).__name__}")
        else:
            handler(self, node, env)

    def _assign(self, node: ast.Assign, env: dict[str, AbsVal]) -> None:
        val = self._eval(node.value, env)
        for target in node.targets:
            self._bind(target, val, node, env)

    def _bind(
        self, target: ast.expr, val: AbsVal, node: ast.stmt, env: dict[str, AbsVal]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = val
        elif isinstance(target, ast.Tuple):
            items = (
                val.items
                if len(val.items) == len(target.elts)
                else (_UNKNOWN,) * len(target.elts)
            )
            for elt, item in zip(target.elts, items):
                self._bind(elt, item, node, env)
        elif isinstance(target, ast.Subscript):
            self._subscript_write(target, node, env, kind="assign", value=val)
        else:
            # self.x = ... (rebinding state mid-phase), starred targets, ...
            self._unknown(
                node, f"un-modelled assignment target {type(target).__name__}"
            )

    def _aug_assign(self, node: ast.AugAssign, env: dict[str, AbsVal]) -> None:
        val = self._eval(node.value, env)
        if isinstance(node.target, ast.Subscript):
            self._subscript_write(node.target, node, env, kind="augassign", value=val)
        else:
            # ``a += v`` is in place when ``a`` is an array — possibly one
            # aliasing operator state — and a rebind when it is a scalar.
            self._unknown(
                node,
                f"un-modelled augmented-assignment target {type(node.target).__name__}",
            )

    def _subscript_write(
        self,
        target: ast.Subscript,
        node: ast.stmt,
        env: dict[str, AbsVal],
        *,
        kind: str,
        value: AbsVal,
    ) -> None:
        idx = self._eval(target.slice, env)
        self._write(
            node, target.value, env, how="store through",
            kind=kind, space=_index_space(idx),
            unique=idx.unique, constant=value.constant,
        )

    def _expr_stmt(self, node: ast.Expr, env: dict[str, AbsVal]) -> None:
        self._eval(node.value, env)

    def _return(self, node: ast.Return, env: dict[str, AbsVal]) -> None:
        self.returns.append(
            _NONE if node.value is None else self._eval(node.value, env)
        )

    def _if(self, node: ast.If, env: dict[str, AbsVal]) -> None:
        self._eval(node.test, env)
        env_true = dict(env)
        env_false = dict(env)
        self._block(node.body, env_true)
        self._block(node.orelse, env_false)
        for name in env_true.keys() | env_false.keys():
            env[name] = _join(
                env_true.get(name, _UNKNOWN), env_false.get(name, _UNKNOWN)
            )

    #: the statement grammar; see the module docstring.
    _STATEMENTS = {
        ast.Assign: _assign,
        ast.AugAssign: _aug_assign,
        ast.Expr: _expr_stmt,
        ast.Return: _return,
        ast.If: _if,
    }

    # -- expressions ----------------------------------------------------
    def _eval(self, node: ast.expr, env: dict[str, AbsVal]) -> AbsVal:
        handler = self._EXPRESSIONS.get(type(node))
        if handler is None:
            return self._unknown(
                node, f"un-modelled expression {type(node).__name__}"
            )
        return handler(self, node, env)

    def _eval_constant(self, node: ast.Constant, env: dict[str, AbsVal]) -> AbsVal:
        return AbsVal(constant=True, space="none" if node.value is None else "value")

    def _eval_name(self, node: ast.Name, env: dict[str, AbsVal]) -> AbsVal:
        return env.get(node.id, _VALUE)

    def _eval_attribute(self, node: ast.Attribute, env: dict[str, AbsVal]) -> AbsVal:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return AbsVal(attr=node.attr)
        base = self._eval(node.value, env)
        if node.attr in _BATCH_WIDE and base.attr is None:
            self.batch_wide.append(f".{node.attr}")
        # plain data attributes (x.size, x.shape, x.dtype...) are scalars.
        return _VALUE

    def _eval_subscript(self, node: ast.Subscript, env: dict[str, AbsVal]) -> AbsVal:
        base = self._eval(node.value, env)
        idx = self._eval(node.slice, env)
        if base.attr is not None:
            self._emit(node, kind="read", array=base.attr, space=_index_space(idx))
            return AbsVal(parallel=idx.parallel)
        if not (idx.space == "bool" and idx.parallel):
            # a gather from state is per edge; picking by position is not.
            self.batch_wide.append("a subscript by positions")
        if base.space in ("src", "dst"):
            # any subscript of an id array yields a subset of those ids;
            # only a boolean mask is known not to repeat one.
            return AbsVal(space=base.space, unique=base.unique and idx.space == "bool")
        return _VALUE

    def _eval_operator(self, node: ast.expr, env: dict[str, AbsVal]) -> AbsVal:
        """Compare / BoolOp / UnaryOp / BinOp: every operand is consumed."""
        vals = [
            self._eval(child, env)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        vals = [self._use(node, val) for val in vals]
        if isinstance(node, ast.UnaryOp):
            # ``~ids`` are not ids: only a mask (or a value that may be one)
            # stays a mask under not/invert.
            boolean = (
                isinstance(node.op, (ast.Not, ast.Invert))
                and vals[0].space in ("bool", "value")
            )
        elif isinstance(node, ast.BinOp):
            boolean = (
                isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor))
                and all(val.space == "bool" for val in vals)
            )
        else:
            boolean = True
        return AbsVal(
            space="bool" if boolean else "value",
            parallel=any(val.parallel for val in vals),
            constant=all(val.constant for val in vals),
        )

    def _eval_tuple(self, node: ast.Tuple, env: dict[str, AbsVal]) -> AbsVal:
        return AbsVal(
            space="tuple", items=tuple(self._eval(elt, env) for elt in node.elts)
        )

    def _eval_slice(self, node: ast.Slice, env: dict[str, AbsVal]) -> AbsVal:
        """``a:b:c`` as an index: positions, fixed when its bounds are."""
        parts = (node.lower, node.upper, node.step)
        bounds = [self._use(node, self._eval(part, env)) for part in parts if part is not None]
        return AbsVal(constant=all(bound.constant for bound in bounds))

    # -- calls ----------------------------------------------------------
    def _operands(
        self, node: ast.Call, env: dict[str, AbsVal], shape: str | None = None
    ) -> list[AbsVal]:
        """Evaluate and consume a call's operands.

        A keyword is modelled only when :data:`_KEYWORDS` lists it for
        this call ``shape``: ``out=`` writes its whole target, the others
        are read like positional operands; anything else — ``**kwargs``
        included — could name a write target or change which array is
        returned, so it is un-modelled rather than dropped.
        """
        vals = [self._use(node, self._eval(arg, env)) for arg in node.args]
        for kw in node.keywords:
            if kw.arg not in _KEYWORDS.get(shape, ()):
                self._unknown(node, f"un-modelled call keyword {kw.arg!r}")
            elif kw.arg == "out":
                self._write(node, kw.value, env, how="out= into",
                            kind="assign", space="full")
            else:
                self._use(node, self._eval(kw.value, env))
        return vals

    def _eval_call(self, node: ast.Call, env: dict[str, AbsVal]) -> AbsVal:
        func = node.func
        chain = attr_chain(func)

        if chain in ORDER_CARRYING_CALLS:
            self._operands(node, env)
            self._emit(node, kind="order", detail=chain)
            return _VALUE

        parts = chain.split(".") if chain is not None else []
        if len(parts) >= 2 and parts[0] in ("np", "numpy"):
            return self._eval_numpy_call(node, parts, env)

        if isinstance(func, ast.Name) and func.id not in env:
            helper = HELPER_COMBINE.get(self.graph.imported.get(func.id))
            if helper is not None:
                return self._eval_helper_scatter(node, helper, env)

        # self.<name>(...) or module-level function: interprocedural.
        target = self.graph.resolve_call(node, self.class_name)
        if target is not None:
            return self._eval_resolved_call(node, target, env)

        if isinstance(func, ast.Attribute) and not (
            isinstance(func.value, ast.Name) and func.value.id == "self"
        ):
            return self._eval_method_call(node, func, env)
        if isinstance(func, ast.Name) and func.id in _SAFE_BUILTINS and func.id not in env:
            self._operands(node, env)
            if func.id in _BATCH_WIDE:
                self.batch_wide.append(f"{func.id}()")
            return _VALUE
        # an unresolvable self.<name>(...) (``self.weight_fn(…)`` included: a
        # weighted operator is handed its weights), a call through a local or
        # an imported name, an immediately-called lambda, ...
        return self._unknown(
            node, f"un-modelled call to {chain or type(func).__name__}"
        )

    def _eval_numpy_call(
        self, node: ast.Call, parts: list[str], env: dict[str, AbsVal]
    ) -> AbsVal:
        # np.<ufunc>.at(target, idx, val): the unbuffered scatter.
        if len(parts) == 3 and parts[2] == "at":
            return self._eval_scatter(node, parts[1], env)
        name = parts[1] if len(parts) == 2 else None
        if name in _BATCH_WIDE or (name == "where" and len(node.args) == 1):
            self.batch_wide.append(f"np.{name}")
        if name == "unique":
            arg, *flags = self._operands(node, env, "unique") or [_UNKNOWN]
            first = AbsVal(
                space=arg.space if arg.space in ("src", "dst") else "value",
                unique=True,
            )
            # one extra return per return_index/inverse/counts flag
            # (keyword or positional), so tuple unpacking lines up.
            extras = len(flags) + len(node.keywords)
            if not extras:
                return first
            return AbsVal(space="tuple", items=(first,) + (_VALUE,) * extras)
        if name in _NP_ALLOCATORS:
            self._operands(node, env, "allocator")
            return AbsVal(fresh=True)
        if name in _NP_VALUE_FUNCS:
            if len(node.args) > _NP_VALUE_FUNCS[name]:
                return self._unknown(
                    node, f"np.{name} with a positional out/extra operand"
                )
            vals = self._operands(node, env, "value")
            boolish = name.startswith(("is", "logical")) or name == "invert"
            return AbsVal(
                space="bool" if boolish else "value",
                parallel=any(val.parallel for val in vals),
            )
        # numpy API outside the lowerable subset: portability violation.
        self._operands(node, env)
        self._emit(node, kind="nonportable", detail=".".join(parts))
        return _VALUE

    def _eval_scatter(
        self, node: ast.Call, ufunc: str, env: dict[str, AbsVal]
    ) -> AbsVal:
        if len(node.args) < 2 or node.keywords:
            return self._unknown(node, f"malformed np.{ufunc}.at call")
        idx = self._eval(node.args[1], env)
        for arg in node.args[2:]:
            self._use(node, self._eval(arg, env))
        self._write(
            node, node.args[0], env, how="scatter into",
            kind="scatter", space=_index_space(idx),
            combine=UFUNC_COMBINE.get(ufunc), unique=idx.unique,
        )
        return _NONE

    def _eval_helper_scatter(
        self, node: ast.Call, combine: str, env: dict[str, AbsVal]
    ) -> AbsVal:
        if len(node.args) not in (4, 5) or node.keywords:
            return self._unknown(node, f"malformed {node.func.id} call")
        acc, dst, x, src, *data = (self._eval(arg, env) for arg in node.args)
        if acc.attr is not None and acc.attr in {x.attr, *(d.attr for d in data)}:
            return self._unknown(node, f"{node.func.id} with acc also read as x or data")
        if x.attr is not None:
            self._emit(node, kind="read", array=x.attr, space=_index_space(src))
        else:
            self._use(node, x)
        for value in data:  # edge-parallel, read whole
            self._use(node, value)
        self._write(
            node, node.args[0], env, how="scatter into",
            kind="scatter", space=_index_space(dst), combine=combine, unique=dst.unique,
        )
        return _NONE

    def _eval_resolved_call(
        self, node: ast.Call, target, env: dict[str, AbsVal]
    ) -> AbsVal:
        if self.depth >= MAX_CALL_DEPTH:
            return self._unknown(node, f"call chain deeper than {MAX_CALL_DEPTH}")
        fn = target.node
        spec = fn.args
        params = [a.arg for a in spec.args]
        if target.kind == "method" and params[:1] == ["self"]:
            params = params[1:]
        if (
            node.keywords
            or len(node.args) != len(params)
            or spec.vararg or spec.kwarg or spec.kwonlyargs or spec.posonlyargs
            or fn.decorator_list
        ):
            # only a plain positional call binds every parameter soundly.
            return self._unknown(
                node, f"un-modelled call shape into {target.name}()"
            )
        args = {name: self._eval(arg, env) for name, arg in zip(params, node.args)}
        sub = _Analyzer(
            self.graph,
            self.class_name if target.kind == "method" else None,
            self.effects,
            depth=self.depth + 1,
        )
        sub.batch_wide = self.batch_wide
        return sub.run(fn, args)

    def _eval_method_call(
        self, node: ast.Call, func: ast.Attribute, env: dict[str, AbsVal]
    ) -> AbsVal:
        method = func.attr
        # astype takes its dtype; a positional operand of a reduction
        # would be its axis/dtype/out.
        if method not in _VALUE_METHODS or len(node.args) > (method == "astype"):
            return self._unknown(node, f"un-modelled method call .{method}()")
        base = self._use(node, self._eval(func.value, env))
        self._operands(node, env, method)
        if method in _BATCH_WIDE:
            self.batch_wide.append(f".{method}()")
        if method == "copy":
            return replace(base, attr=None, fresh=True)
        if method == "astype":
            # a narrowing cast changes ids and a widening one turns a mask
            # into integers: only the length survives.
            return AbsVal(parallel=base.parallel)
        return _VALUE

    #: the expression grammar; see the module docstring.
    _EXPRESSIONS = {
        ast.Constant: _eval_constant,
        ast.Name: _eval_name,
        ast.Attribute: _eval_attribute,
        ast.Subscript: _eval_subscript,
        ast.Call: _eval_call,
        ast.Compare: _eval_operator,
        ast.BoolOp: _eval_operator,
        ast.UnaryOp: _eval_operator,
        ast.BinOp: _eval_operator,
        ast.Tuple: _eval_tuple,
        ast.Slice: _eval_slice,
    }


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
    return "const" if idx.constant else "unknown"


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
            aliased = bool(reads_by_array.get(eff.array, set()) - {"dst"})
            if eff.kind == "augassign":
                level = level.join(SafetyLevel.UNSAFE)
                reasons.append(
                    f"buffered fancy-indexed accumulation on {eff.array} "
                    "drops duplicate destinations (GL001)"
                )
            elif eff.kind == "scatter":
                ok_combine = eff.combine in COMMUTATIVE_COMBINES
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
                    if aliased and declared not in COMMUTATIVE_COMBINES:
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
    process_pass = _Analyzer(graph, class_name, summary.effects)
    if process is None:
        summary.effects.append(Effect(kind="unknown", detail="no process_edges body"))
    else:
        params = [a.arg for a in process.args.args]
        # src, dst and a weighted operator's w: an edge-parallel value, never ids.
        args = {
            name: AbsVal(space=space, parallel=True)
            for name, space in zip(params[1:], ("src", "dst", "value"))
        }
        process_pass.run(process, args)
    processed, written = len(summary.effects), summary.written_arrays()

    cond = methods.get("cond")
    if cond is not None:
        analyzer = _Analyzer(graph, class_name, summary.effects)
        params = [a.arg for a in cond.args.args]
        args = {}
        if len(params) >= 2:
            args[params[1]] = AbsVal(space="dst", parallel=True)
        result = analyzer.run(cond, args)  # its effects go after ``processed``
        mask_ok = result.space == "none" or (
            result.space == "bool" and result.parallel
        )
        summary.cond_proved = mask_ok and not any(
            e.kind in ("unknown", "escape") for e in summary.effects
        )
        summary.cond_local = summary.cond_proved and not any(
            e.kind in ("scatter", "assign", "augassign")
            or (e.kind == "read" and e.array in written and e.space != "dst")
            for e in summary.effects[processed:]
        )

    init = methods.get("__init__")
    has_override = "snapshot" in methods and "restore" in methods
    blind = [] if has_override else _mutable_init_attrs(init)
    classify(summary, blind_attrs=blind)
    # The split rule.  Runs own disjoint ascending dst ranges, so a batch sees another's
    # writes only by reading them off ``dst`` or through a scattered local; the rest is per edge.
    own = summary.effects[:processed]
    summary.split_reasons = [
        *(["not partition-pure"] if summary.level is not SafetyLevel.PARTITION_PURE else []),
        *([] if summary.cond_local else ["cond is not local"]),
        *(f"reads {e.array}, which it writes, at {e.space}" for e in own
          if e.kind == "read" and e.array in written and e.space != "dst"),
        *(f"scatters into the local {e.array}" for e in own if e.kind == "alloc"),
        *process_pass.batch_wide,
    ]
    return summary
