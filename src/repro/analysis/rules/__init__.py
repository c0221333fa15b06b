"""Graphlint rule infrastructure and registry.

Each rule is a class with a ``code`` (``GL001``...), a one-line
``summary`` (the rule catalogue of ``repro lint --format sarif``), and a
``check(module)`` generator yielding :class:`~repro.analysis.findings.Finding`
objects.  Rules receive a :class:`ModuleContext` with the parsed AST and
the :class:`EdgeOperator` subclasses discovered in the module, so every
rule stays a pure function of one file — no imports are executed.

Every rule about operator code (GL001 - GL004, GL006 - GL010) reports the
effect pass's violations (:mod:`.effects`); GL005 is the one pattern rule.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..findings import Finding

__all__ = [
    "ModuleContext",
    "Rule",
    "all_rules",
    "rule_catalogue",
]


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one source file."""

    path: str
    tree: ast.Module
    #: the module's ``EdgeOperator`` subclasses (nested ones included).
    operators: list[ast.ClassDef]
    #: scratch space for rules that share an expensive analysis of the
    #: module (the effect pass memoizes its violations here).
    analysis_cache: dict = field(default_factory=dict)

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node``'s source span."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


class Rule(abc.ABC):
    """Base class for lint rules; subclasses set ``code`` and ``summary``."""

    code: str
    summary: str

    @abc.abstractmethod
    def check(self, module: ModuleContext) -> Iterable[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in code order."""
    from .determinism import NondeterminismRule
    from .effects import EFFECT_RULES

    rules: list[Rule] = [NondeterminismRule(), *(rule() for rule in EFFECT_RULES)]
    return sorted(rules, key=lambda r: r.code)


#: findings emitted by the lint driver itself rather than an AST rule.
DRIVER_RULES: tuple[tuple[str, str], ...] = (
    ("GL011", "unused '# graphlint: disable=' suppression directive"),
)


def rule_catalogue() -> Iterator[tuple[str, str]]:
    """(code, summary) pairs of every registered rule (driver rules last)."""
    for rule in all_rules():
        yield rule.code, rule.summary
    yield from DRIVER_RULES
