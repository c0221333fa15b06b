"""Compute never loads resilience unasked.

``graph``/``partition``/``frontier``/``layout``/``core``/``algorithms`` are
the paper's system; ``repro.resilience`` is a layer over it.  The layer
may import the system, never the reverse at module scope — only plain
data (dicts of arrays, ``PartitionRecord``) crosses the boundary, and an
unsupervised engine runs without the resilience package in memory.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
COMPUTE = ("graph", "partition", "frontier", "layout", "core", "algorithms")


def _module_scope_imports(tree: ast.Module, package: str):
    """Absolute names imported when the module is, ``if TYPE_CHECKING``
    bodies excepted; function bodies run later and are not visited."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")[: len(package.split(".")) - node.level + 1]
            prefix = ".".join(base) if node.level else ""
            module = ".".join(filter(None, [prefix, node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.If):
            if "TYPE_CHECKING" not in ast.dump(node.test):
                stack += node.body
            stack += node.orelse
        elif isinstance(node, (ast.Try, ast.With, ast.ClassDef)):
            stack += [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
            for handler in getattr(node, "handlers", []):
                stack += handler.body


def _compute_modules():
    for layer in COMPUTE:
        yield from sorted((SRC / "repro" / layer).rglob("*.py"))


@pytest.mark.parametrize("path", _compute_modules(), ids=lambda p: str(p.relative_to(SRC)))
def test_compute_module_does_not_import_resilience_at_module_scope(path):
    package = ".".join(path.relative_to(SRC).with_suffix("").parts[:-1])
    imported = _module_scope_imports(ast.parse(path.read_text()), package)
    upward = sorted({name for name in imported if name.startswith("repro.resilience")})
    assert not upward, f"{path.relative_to(SRC)} imports {upward} at module scope"


def test_the_walk_sees_a_relative_upward_import():
    tree = ast.parse("from ..resilience.journal import PhaseJournal\n")
    assert "repro.resilience.journal" in set(_module_scope_imports(tree, "repro.core"))
    guarded = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from ..resilience.journal import PhaseJournal\n"
    )
    assert not any(
        name.startswith("repro.resilience") for name in _module_scope_imports(guarded, "repro.core")
    )


def test_importing_the_engine_and_registry_loads_no_resilience_module():
    # the import-closure one-liner of the CI lint job, in a clean interpreter
    code = (
        "import sys, repro.core.engine, repro.algorithms.registry; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.resilience')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.stdout.strip() == "[]"
