"""Compute never loads resilience unasked.

``graph``/``partition``/``frontier``/``layout``/``core``/``algorithms`` are
the paper's system; ``repro.resilience`` is a layer over it.  The layer
may import the system, never the reverse at module scope — only plain
data (dicts of arrays, ``PartitionRecord``) crosses the boundary, and an
unsupervised engine runs without the resilience package in memory.

``src/`` also carries no module that only its package ``__init__`` imports
(code that only a test or an experiment reads), outside a named set.
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


def _imported_names(node: ast.stmt, package: str):
    """Absolute names one import statement of a module in ``package`` binds:
    the module and, for ``from``, each ``module.name``."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        base = package.split(".")[: len(package.split(".")) - node.level + 1]
        prefix = ".".join(base) if node.level else ""
        module = ".".join(filter(None, [prefix, node.module]))
        yield module
        yield from (f"{module}.{alias.name}" for alias in node.names)


def _module_scope_imports(tree: ast.Module, package: str):
    """Absolute names imported when the module is, ``if TYPE_CHECKING``
    bodies excepted; function bodies run later and are not visited."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from _imported_names(node, package)
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


#: modules of ``src/repro`` that no module but a package ``__init__``
#: imports, each with why it stays; code that only a test or an experiment
#: reads moves beside its caller instead of joining this set.
ONLY_AN_INIT_IMPORTS = {
    "repro.__main__": "the entry point",
    "repro.partition.reorder": "bench_ext_reordering and ROADMAP item 3 read it",
}


def test_every_module_only_an_init_imports_is_named():
    # every import counts, function bodies included
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_init = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_init else parts)
        names = {n for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for n in _imported_names(node, ".".join(parts[:-1]))}
        modules[name] = (is_init, names)
    init_only = {
        name for name, (is_init, _) in modules.items()
        if not is_init and all(
            modules[other][0]
            for other, (_, names) in modules.items() if other != name and name in names
        )
    }
    assert init_only == set(ONLY_AN_INIT_IMPORTS), sorted(init_only ^ set(ONLY_AN_INIT_IMPORTS))


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
    # the import-closure one-liner of the CI ruff job, in a clean interpreter
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
