"""The rules about operator code: GL001 - GL004 and GL006 - GL010.

Each runs the interprocedural effect pass (:mod:`repro.analysis.effects`)
over every operator and reports its *provable* violations: a finding is
exactly a place where the certificate's proof fails, so ``repro lint``
and ``repro certify`` cannot disagree.  An operator the pass cannot fully
model is merely uncertifiable (the engine keeps its runtime guards); it
produces no finding — wrappers and instrumentation classes stay
lint-clean.
"""

from __future__ import annotations

from typing import Iterable

from ..effects import Violation, analyze_operator
from ..findings import Finding
from . import ModuleContext, Rule

__all__ = ["EFFECT_RULES"]


def _module_violations(module: ModuleContext) -> list[Violation]:
    """All effect violations in a module, each place once (a subclass
    re-reports what its same-module base's methods do), memoized on the
    context."""
    cache = module.analysis_cache
    if "effect_violations" not in cache:
        violations: dict[tuple[int, int, str], Violation] = {}
        for operator in module.operators:
            for violation in analyze_operator(module.tree, operator.name).violations:
                violations.setdefault((violation.line, violation.col, violation.code), violation)
        cache["effect_violations"] = list(violations.values())
    return cache["effect_violations"]


class _EffectRule(Rule):
    """Shared driver: surface this rule's code from the effect pass."""

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for violation in _module_violations(module):
            if violation.code == self.code:
                yield Finding(
                    path=module.path,
                    line=violation.line,
                    col=violation.col,
                    code=self.code,
                    message=violation.message,
                )


class DirectScatterRule(_EffectRule):
    code = "GL001"
    summary = (
        "buffered read-modify-write through destination ids drops duplicate "
        "destinations; use an unbuffered scatter ufunc (np.add.at, np.minimum.at, ...)"
    )


class NonCommutativeScatterRule(_EffectRule):
    code = "GL002"
    summary = (
        "scatter ufunc is not a known commutative-associative reduction; "
        "the result depends on the partition visit order"
    )


class MutableStateRule(_EffectRule):
    code = "GL003"
    summary = (
        "operator holds mutable non-ndarray state but does not override both "
        "snapshot() and restore(); supervised rollback silently misses it"
    )


class CondMaskRule(_EffectRule):
    code = "GL004"
    summary = (
        "cond() returns an index array or reshaped selection instead of a "
        "boolean mask parallel to dst_ids"
    )


class OutOfSliceWriteRule(_EffectRule):
    code = "GL006"
    summary = (
        "operator writes state through source ids or a fixed slot — the "
        "write provably leaves the partition's destination slice"
    )


class UndeclaredCombineRule(_EffectRule):
    code = "GL007"
    summary = (
        "operator reads an array outside the destination slice and writes "
        "it without a matching declared commutative combine"
    )


class EffectEscapeRule(_EffectRule):
    code = "GL008"
    summary = (
        "operator writes through a closure, global, or parameter array — "
        "the effect escapes operator state and every runtime safety net"
    )


class OrderCarryingReductionRule(_EffectRule):
    code = "GL009"
    summary = (
        "operator threads values through an order-carrying reduction "
        "(cumsum/reduce/accumulate) whose result depends on edge order"
    )


class NonLowerableNumpyRule(_EffectRule):
    code = "GL010"
    summary = (
        "operator calls numpy API outside the subset the effect pass "
        "models; it stays uncertified, so its guards stay on and the "
        "thread pool does not admit it"
    )


#: every rule the effect pass backs, in code order.
EFFECT_RULES = (
    DirectScatterRule, NonCommutativeScatterRule, MutableStateRule, CondMaskRule,
    OutOfSliceWriteRule, UndeclaredCombineRule, EffectEscapeRule,
    OrderCarryingReductionRule, NonLowerableNumpyRule,
)
