"""Signed parallel-safety certificates for registered algorithms.

:func:`certify_algorithm` runs the effect-inference pass
(:mod:`repro.analysis.effects`) over every operator class a registered
algorithm names in its :class:`~repro.algorithms.registry.AlgorithmSpec`
metadata and folds the per-operator verdicts into one
:class:`SafetyCertificate`.  The certificate is *signed*: a keyed
blake2b digest over the canonical-JSON payload, so any consumer (the
engine's guard-skip fast path, CI, an external scheduler) can detect a
tampered or hand-edited certificate with :meth:`SafetyCertificate.verify`.

The engine-facing entry point is :func:`operator_report`, which analyzes
the *runtime* class of an operator instance (via ``inspect.getsource``
of its defining module) and caches the verdict per class — the cost of
certification is paid once per process, not per ``edge_map``.
"""

from __future__ import annotations

import ast
import hashlib
import hmac
import inspect
import json
import sys
from dataclasses import dataclass

from .callgraph import ModuleCallGraph
from .effects import OperatorEffects, SafetyLevel, analyze_operator

__all__ = [
    "OperatorReport",
    "SafetyCertificate",
    "operator_report",
    "operator_is_partition_pure",
    "signed_report_token",
    "verify_report_token",
    "certify_algorithm",
    "certify_all",
]

#: the signing key is deliberately baked in: the signature defends against
#: accidental tampering and stale serialized certificates, not against a
#: malicious actor with access to this process.
_SIGNING_KEY = b"repro-safety-certificate-v1"


@dataclass(frozen=True)
class OperatorReport:
    """The certified verdict for one operator class."""

    name: str  # "package.module:ClassName"
    level: str  # SafetyLevel value
    combine: str | None
    #: attr -> sorted tuple of index spaces the operator may write through.
    write_sets: tuple[tuple[str, tuple[str, ...]], ...]
    #: attr -> sorted tuple of index spaces the operator may read through.
    read_sets: tuple[tuple[str, tuple[str, ...]], ...]
    effects: tuple[str, ...]
    reasons: tuple[str, ...]
    violations: tuple[tuple[str, int, str], ...]  # (code, line, message)
    cond_proved: bool
    #: ``cond`` writes nothing and reads written arrays only at the ids
    #: it is handed, so evaluating it early for a run of partitions is
    #: unobservable (see :attr:`OperatorEffects.cond_local`).
    cond_local: bool
    #: a run's batches may reach ``process_edges`` as one, as unobservably.
    edge_local: bool

    @property
    def safety(self) -> SafetyLevel:
        return SafetyLevel(self.level)

    def written_arrays(self) -> dict[str, frozenset[str]]:
        return {attr: frozenset(spaces) for attr, spaces in self.write_sets}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "level": self.level,
            "combine": self.combine,
            "write_sets": {a: list(s) for a, s in self.write_sets},
            "read_sets": {a: list(s) for a, s in self.read_sets},
            "effects": list(self.effects),
            "reasons": list(self.reasons),
            "violations": [
                {"code": c, "line": ln, "message": m}
                for c, ln, m in self.violations
            ],
            "cond_proved": self.cond_proved,
            "cond_local": self.cond_local,
            "edge_local": self.edge_local,
        }


@dataclass(frozen=True)
class SafetyCertificate:
    """The signed parallel-safety verdict for one registered algorithm."""

    algorithm: str
    level: str  # worst operator level
    operators: tuple[OperatorReport, ...]
    signature: str = ""

    @property
    def safety(self) -> SafetyLevel:
        return SafetyLevel(self.level)

    @property
    def partition_pure(self) -> bool:
        return self.safety is SafetyLevel.PARTITION_PURE

    def payload(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "level": self.level,
            "operators": [op.to_dict() for op in self.operators],
        }

    def sign(self) -> "SafetyCertificate":
        return SafetyCertificate(
            algorithm=self.algorithm,
            level=self.level,
            operators=self.operators,
            signature=_sign(self.payload()),
        )

    def verify(self) -> bool:
        return hmac.compare_digest(self.signature, _sign(self.payload()))

    def to_dict(self) -> dict:
        out = self.payload()
        out["signature"] = self.signature
        return out


def _sign(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(
        canonical.encode("utf-8"), key=_SIGNING_KEY, digest_size=16
    ).hexdigest()


# ----------------------------------------------------------------------
# runtime class analysis (what the engine consults)
# ----------------------------------------------------------------------
_MODULE_CACHE: dict[str, tuple[ast.Module, ModuleCallGraph] | None] = {}
_CLASS_CACHE: dict[type, OperatorReport] = {}


def _module_tables(module_name: str) -> tuple[ast.Module, ModuleCallGraph] | None:
    if module_name not in _MODULE_CACHE:
        try:
            module = sys.modules.get(module_name)
            if module is None:
                import importlib

                module = importlib.import_module(module_name)
            source = inspect.getsource(module)
            tree = ast.parse(source)
            _MODULE_CACHE[module_name] = (tree, ModuleCallGraph.build(tree, module_name))
        except (OSError, TypeError, SyntaxError, ImportError):
            _MODULE_CACHE[module_name] = None
    return _MODULE_CACHE[module_name]


def _report_from_summary(name: str, summary: OperatorEffects) -> OperatorReport:
    writes: dict[str, set[str]] = {}
    reads: dict[str, set[str]] = {}
    for eff in summary.effects:
        if eff.kind in ("scatter", "assign", "augassign"):
            writes.setdefault(eff.array, set()).add(eff.space)
        elif eff.kind == "read":
            reads.setdefault(eff.array, set()).add(eff.space)
    return OperatorReport(
        name=name,
        level=summary.level.value,
        combine=summary.combine,
        write_sets=tuple(
            (attr, tuple(sorted(spaces))) for attr, spaces in sorted(writes.items())
        ),
        read_sets=tuple(
            (attr, tuple(sorted(spaces))) for attr, spaces in sorted(reads.items())
        ),
        effects=tuple(e.render() for e in summary.effects),
        reasons=tuple(summary.reasons),
        violations=tuple(
            (v.code, v.line, v.message) for v in summary.violations
        ),
        cond_proved=summary.cond_proved,
        cond_local=summary.cond_local,
        edge_local=not summary.split_reasons,
    )


def _unknown_report(name: str, reason: str) -> OperatorReport:
    return OperatorReport(
        name=name,
        level=SafetyLevel.UNKNOWN.value,
        combine=None,
        write_sets=(),
        read_sets=(),
        effects=(),
        reasons=(reason,),
        violations=(),
        cond_proved=False,
        cond_local=False,
        edge_local=False,
    )


def operator_report(cls: type) -> OperatorReport:
    """Analyze one live operator class; cached per class."""
    cached = _CLASS_CACHE.get(cls)
    if cached is not None:
        return cached
    name = f"{cls.__module__}:{cls.__qualname__}"
    tables = _module_tables(cls.__module__)
    if tables is None:
        report = _unknown_report(name, "operator source is not statically available")
    else:
        tree, graph = tables
        if cls.__name__ not in graph.methods:
            report = _unknown_report(
                name, f"class {cls.__name__} not found in module source"
            )
        else:
            summary = analyze_operator(
                tree,
                cls.__name__,
                graph=graph,
                declared_combine=getattr(cls, "combine", None),
            )
            report = _report_from_summary(name, summary)
    _CLASS_CACHE[cls] = report
    return report


def signed_report_token(cls: type) -> tuple[dict, str]:
    """A transportable ``(payload, signature)`` pair for one operator class.

    The process backend ships this with every operator it dispatches:
    the payload is the :class:`OperatorReport` as a plain dict and the
    signature the same keyed blake2b that signs algorithm certificates.
    Workers re-verify the pair at attach time (:func:`verify_report_token`)
    and independently re-derive the report for the class they actually
    unpickled, so a tampered token — or a token for a different class
    than the one being attached — is rejected before any edge is
    processed.
    """
    report = operator_report(cls)
    payload = report.to_dict()
    return payload, _sign(payload)


def verify_report_token(payload: dict, signature: str) -> bool:
    """Whether ``signature`` is the authentic signature of ``payload``."""
    return hmac.compare_digest(signature, _sign(payload))


def operator_is_partition_pure(op: object) -> bool:
    """Fast engine-facing check: is this instance's class certified pure?

    Analysis failures degrade to ``False`` — the engine falls back to the
    guarded path, never the other way around.
    """
    try:
        return operator_report(type(op)).safety is SafetyLevel.PARTITION_PURE
    except Exception:
        return False


# ----------------------------------------------------------------------
# registry-level certification
# ----------------------------------------------------------------------
def _load_operator(path: str) -> type:
    """Resolve a ``package.module:ClassName`` operator path."""
    import importlib

    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    obj = module
    for part in class_name.split("."):
        obj = getattr(obj, part)
    return obj


def certify_algorithm(code: str) -> SafetyCertificate:
    """Build (and sign) the certificate for one registered algorithm."""
    from ..algorithms import registry  # lazy: registry -> engine -> analysis

    spec = registry.get(code)
    reports = []
    for path in spec.operators:
        try:
            cls = _load_operator(path)
        except (ImportError, AttributeError) as exc:
            reports.append(
                _unknown_report(path, f"operator path does not resolve: {exc}")
            )
            continue
        reports.append(operator_report(cls))
    level = SafetyLevel.PARTITION_PURE
    for report in reports:
        level = level.join(report.safety)
    if not reports:
        level = SafetyLevel.UNKNOWN
    return SafetyCertificate(
        algorithm=code, level=level.value, operators=tuple(reports)
    ).sign()


def certify_all() -> dict[str, SafetyCertificate]:
    """Certificates for every registered algorithm, keyed by code."""
    from ..algorithms import registry

    return {code: certify_algorithm(code) for code in registry.names()}
