"""Graphlint: static operator-contract analysis + dynamic race sanitizer.

Two layers over the same contract (see DESIGN.md):

* :mod:`repro.analysis.lint` — the GL rules over source trees, no imports
  of the linted code, per-line ``# graphlint: disable=`` suppressions.
  Every rule about operator code reports a violation of the effect pass
  (:mod:`repro.analysis.effects`), the same proof :mod:`repro.analysis.certificate`
  signs and the engine trusts; GL005 (nondeterminism) is a pattern rule;
* :mod:`repro.analysis.sanitizer` — shadow-memory write-set recording
  plus batch-invariance checks executed against the registered
  algorithm matrix.

Import the submodule you use: the package itself loads nothing, so the
engine's certificate lookup never pulls in the linter or the sanitizer.

CLI: ``python -m repro lint [--sanitize] [paths ...]``, ``python -m repro certify``.
"""
