"""Graphlint: static operator-contract analysis.

:mod:`repro.analysis.lint` runs the GL rules over source trees, with no
imports of the linted code and per-line ``# graphlint: disable=``
suppressions.  Every rule about operator code reports a violation of the
effect pass (:mod:`repro.analysis.effects`), the same proof
:mod:`repro.analysis.certificate` signs and the engine trusts; GL005
(nondeterminism) is a pattern rule.  The test suite's lattice harness
holds every run to the same contract dynamically (see DESIGN.md).

Import the submodule you use: the package itself loads nothing, so the
engine's certificate lookup never pulls in the linter.

CLI: ``python -m repro lint [paths ...]``, ``python -m repro certify``.
"""
