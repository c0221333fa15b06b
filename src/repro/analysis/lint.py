"""Graphlint: AST-based operator-contract lint over repro source trees.

Discovers :class:`~repro.core.ops.EdgeOperator` subclasses without
importing the linted code (pure :mod:`ast`), runs the GL-rule catalogue
against every module, and honours per-line suppressions written as
comments, e.g. ``np.power.at(self.state, dst, 2.0)`` inside an operator's
``process_edges``, followed by ``# graphlint: disable=GL002`` on the same
line.

A directive on a comment-only line suppresses the following line; a bare
``# graphlint: disable`` suppresses every rule for that line.
Directives are recognised via :mod:`tokenize`, so text inside string
literals and docstrings (like the example above) is never a directive.
A directive that silences nothing is itself reported as a low-severity
``GL011`` finding — stale suppressions hide future regressions.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .findings import Finding
from .rules import ModuleContext, all_rules

__all__ = [
    "default_root",
    "lint_paths",
    "lint_file",
    "lint_source",
    "lint_paths_report",
    "lint_source_report",
    "LintReport",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
]

#: textual base-class names that mark a class as an edge operator.
_OPERATOR_BASES = frozenset({"EdgeOperator"})

_SUPPRESS_RE = re.compile(
    r"#\s*graphlint:\s*disable(?:=(?P<codes>[A-Za-z0-9_,\s]+))?"
)


def default_root() -> Path:
    """The installed ``repro`` package directory — what CI lints."""
    return Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# operator discovery
# ----------------------------------------------------------------------
def _base_names(node: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def discover_operators(tree: ast.Module) -> list[ast.ClassDef]:
    """EdgeOperator subclasses in a module, including nested classes and
    same-module transitive subclasses (``class A(EdgeOperator)``,
    ``class B(A)``)."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    operator_names = set(_OPERATOR_BASES)
    matched: dict[str, ast.ClassDef] = {}
    # Fixpoint over same-module inheritance chains.
    changed = True
    while changed:
        changed = False
        for node in classes:
            if node.name in matched:
                continue
            if _base_names(node) & operator_names:
                matched[node.name] = node
                operator_names.add(node.name)
                changed = True
    return sorted(matched.values(), key=lambda node: node.lineno)


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
@dataclass
class _Directive:
    """One ``# graphlint: disable`` comment found by the tokenizer."""

    line: int  # where the directive itself sits
    col: int
    target: int  # the line it suppresses
    codes: frozenset[str] | None  # None = all codes
    used: bool = False

    def matches(self, finding: Finding) -> bool:
        return finding.line == self.target and (
            self.codes is None or finding.code in self.codes
        )


def _directives(source: str) -> list[_Directive]:
    """Suppression directives in real comment tokens, in source order."""
    lines = source.splitlines()
    out: list[_Directive] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            lineno, col = tok.start
            codes_text = match.group("codes")
            codes = (
                None
                if codes_text is None
                else frozenset(
                    c.strip().upper()
                    for c in codes_text.split(",")
                    if c.strip()
                )
            )
            line_text = lines[lineno - 1] if lineno - 1 < len(lines) else ""
            comment_only = not line_text[:col].strip()
            out.append(
                _Directive(
                    line=lineno,
                    col=col + 1,
                    target=lineno + 1 if comment_only else lineno,
                    codes=codes,
                )
            )
    except (tokenize.TokenError, IndentationError):
        # ast.parse accepted the source, so this should not happen; fail
        # open (no suppressions) rather than crash the lint run.
        return out
    return out


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Detailed outcome of linting one or more sources.

    ``findings`` are the active rule violations; ``suppressed`` the ones
    silenced by directives; ``unused`` the ``GL011`` findings for
    directives that silenced nothing.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    unused: list[Finding] = field(default_factory=list)

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.unused.extend(other.unused)

    def sort(self) -> "LintReport":
        self.findings.sort()
        self.suppressed.sort()
        self.unused.sort()
        return self

    def all_findings(self) -> list[Finding]:
        """Active findings plus unused-suppression findings, sorted."""
        return sorted(self.findings + self.unused)


def lint_source_report(source: str, path: str = "<string>") -> LintReport:
    """Lint one source string; ``path`` is used only for reporting."""
    tree = ast.parse(source, filename=path)
    module = ModuleContext(path=path, tree=tree, operators=discover_operators(tree))
    directives = _directives(source)
    report = LintReport()
    for rule in all_rules():
        for finding in rule.check(module):
            hits = [d for d in directives if d.matches(finding)]
            if hits:
                for directive in hits:
                    directive.used = True
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    for directive in directives:
        if not directive.used:
            what = (
                "all rules"
                if directive.codes is None
                else ", ".join(sorted(directive.codes))
            )
            report.unused.append(
                Finding(
                    path=path,
                    line=directive.line,
                    col=directive.col,
                    code="GL011",
                    message=(
                        f"unused suppression ({what}): no matching finding "
                        f"on line {directive.target}"
                    ),
                )
            )
    return report.sort()


def lint_paths_report(paths: Sequence[Path | str] | None = None) -> LintReport:
    """Detailed report over files/directories (default: the repro package)."""
    roots = [Path(p) for p in paths] if paths else [default_root()]
    report = LintReport()
    for file in iter_python_files(roots):
        report.extend(
            lint_source_report(
                file.read_text(encoding="utf-8"), path=_display(file)
            )
        )
    return report.sort()


# ----------------------------------------------------------------------
# entry points (rule findings only — the stable API)
# ----------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source string, returning active rule findings."""
    return lint_source_report(source, path=path).findings


def lint_file(path: Path) -> list[Finding]:
    """Lint one file."""
    return lint_source(path.read_text(encoding="utf-8"), path=_display(path))


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen or "__pycache__" in resolved.parts:
                continue
            seen.add(resolved)
            yield candidate


def lint_paths(paths: Sequence[Path | str] | None = None) -> list[Finding]:
    """Lint files/directories (default: the installed repro package)."""
    return lint_paths_report(paths).findings


def _display(path: Path) -> str:
    """cwd-relative path when possible (stable, clickable report lines)."""
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


# ----------------------------------------------------------------------
# suppression baselines (for linting legacy trees in CI)
# ----------------------------------------------------------------------
def load_baseline(path: Path) -> dict[str, int]:
    """``"path::code" -> allowed count`` entries from a baseline file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("entries", data)
    return {str(k): int(v) for k, v in entries.items()}


def apply_baseline(
    findings: list[Finding], baseline: dict[str, int]
) -> list[Finding]:
    """Drop findings covered by the baseline; excess ones remain."""
    remaining = dict(baseline)
    out = []
    for finding in sorted(findings):
        key = f"{finding.path}::{finding.code}"
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            out.append(finding)
    return out


def write_baseline(findings: list[Finding], path: Path) -> None:
    """Write the baseline file that silences exactly these findings."""
    counts: dict[str, int] = {}
    for finding in findings:
        key = f"{finding.path}::{finding.code}"
        counts[key] = counts.get(key, 0) + 1
    payload = {
        "comment": (
            "graphlint suppression baseline: path::code -> allowed count; "
            "regenerate with `python -m repro lint --write-baseline`"
        ),
        "entries": dict(sorted(counts.items())),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
