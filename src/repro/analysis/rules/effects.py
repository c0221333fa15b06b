"""Effect-inference backed rules: GL006 - GL010.

Unlike GL001 - GL005, which pattern-match single statements, these rules
run the interprocedural effect pass (:mod:`repro.analysis.effects`) over
each operator and report only *provable* violations.  An operator the
pass cannot fully model is merely uncertifiable (the engine keeps its
runtime guards); it produces no finding — wrappers and instrumentation
classes stay lint-clean.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..effects import Violation, analyze_operator
from ..findings import Finding
from . import ModuleContext, Rule

__all__ = [
    "OutOfSliceWriteRule",
    "UndeclaredCombineRule",
    "EffectEscapeRule",
    "OrderCarryingReductionRule",
    "NonLowerableNumpyRule",
]


def _module_violations(module: ModuleContext) -> list[Violation]:
    """All effect violations in a module, memoized on the context."""
    cache = module.analysis_cache
    if "effect_violations" not in cache:
        violations: list[Violation] = []
        for operator in module.operators:
            summary = analyze_operator(module.tree, operator.name)
            violations.extend(summary.violations)
        cache["effect_violations"] = violations
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
