"""Graphlint: static operator-contract analysis + dynamic race sanitizer.

Two layers over the same contract (see DESIGN.md):

* :mod:`repro.analysis.lint` — AST rules GL001-GL005 over source trees,
  no imports of the linted code, per-line ``# graphlint: disable=``
  suppressions;
* :mod:`repro.analysis.sanitizer` — shadow-memory write-set recording
  plus batch-invariance checks executed against the registered
  algorithm matrix.

CLI: ``python -m repro lint [--sanitize] [paths ...]``.
"""

from .findings import Finding
from .lint import default_root, lint_file, lint_paths, lint_source
from .sanitizer import (
    LastWriterDemoOp,
    SanitizerFinding,
    ShadowWriteRecorder,
    check_algorithm_invariance,
    check_operator_invariance,
    demo_findings,
    run_sanitizer,
    shadow_check_operator,
    write_conflicts,
)

__all__ = [
    "Finding",
    "default_root",
    "lint_file",
    "lint_paths",
    "lint_source",
    "SanitizerFinding",
    "ShadowWriteRecorder",
    "LastWriterDemoOp",
    "check_algorithm_invariance",
    "check_operator_invariance",
    "demo_findings",
    "run_sanitizer",
    "shadow_check_operator",
    "write_conflicts",
]
