"""Effect inference and parallel-safety certification.

Covers the interprocedural analyzer (`repro.analysis.effects`), the new
GL006-GL010 rules on the known-bad corpus, the signed certificates of
every registered algorithm, the static-vs-dynamic write-set
cross-validation, and the engine's certified guard-skipping fast path.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import registry
from repro.algorithms.bellman_ford import BellmanFordOp
from repro.algorithms.bfs import BFSOp
from repro.algorithms.bp import BPOp
from repro.algorithms.cc import CCOp
from repro.algorithms.mis import KnockOp, MaxPriorityOp
from repro.algorithms.pagerank import PageRankOp, pagerank
from repro.algorithms.prdelta import PRDeltaOp
from repro.algorithms.radii import BitOrOp
from repro.algorithms.spmv import SPMVOp
from repro.analysis.certificate import (
    SafetyCertificate,
    _module_tables,
    certify_algorithm,
    certify_all,
    operator_is_partition_pure,
    operator_report,
)
from repro.analysis.effects import SafetyLevel, analyze_operator
from repro.analysis.lint import lint_file, lint_paths
from repro.analysis.sanitizer import (
    ShadowWriteRecorder,
    _probe_op,
    cross_validate_effects,
    default_graph,
    run_sanitizer,
)
from repro.core.engine import Engine
from repro.core.ops import EdgeOperator
from repro.core.options import EngineOptions
from repro.errors import ValidationError
from repro.frontier.frontier import Frontier
from repro.layout.store import GraphStore
from tests.analysis.corpus import bad_effects, unmodelled_forms
from tests.properties.test_prop_task_runs import NeighbourCondOp

CORPUS = Path(__file__).parent / "corpus"
EFFECT_CODES = ["GL006", "GL007", "GL008", "GL009", "GL010"]
EDGES = default_graph()


class UncertifiableOp(EdgeOperator):
    """Writes through source ids: provably not partition-pure (GL006
    territory), used to exercise the parallel-admission refusal."""

    combine = "add"

    def __init__(self, hits):
        self.hits = hits

    def process_edges(self, src, dst):
        np.add.at(self.hits, src, 1)  # graphlint: disable=GL006
        return dst


#: one operator per form outside the effect pass's closed grammar.
UNMODELLED = [
    cls
    for name, cls in vars(unmodelled_forms).items()
    if isinstance(cls, type) and issubclass(cls, EdgeOperator)
    and cls.__module__ == unmodelled_forms.__name__ and not name.startswith("_")
]


def _analyze(src, class_name, **kw):
    return analyze_operator(ast.parse(src), class_name, **kw)


def _analyze_body(body, combine="add"):
    """Classify ``class P`` whose ``process_edges`` is ``body`` (plus any
    further methods ``body`` defines at class level after a blank line)."""
    process, _, rest = body.partition("\n\n")
    lines = [
        "import numpy as np",
        "class P(EdgeOperator):",
        "    def process_edges(self, src, dst):",
        *("        " + line for line in process.splitlines()),
        *("    " + line for line in rest.splitlines()),
    ]
    return _analyze("\n".join(lines), "P", declared_combine=combine)


# ----------------------------------------------------------------------
# corpus: each effect rule fires exactly once, shipped code stays clean
# ----------------------------------------------------------------------
def test_each_effect_rule_fires_exactly_once_on_corpus():
    findings = lint_file(CORPUS / "bad_effects.py")
    assert sorted(f.code for f in findings) == EFFECT_CODES


def test_effect_rules_add_nothing_to_the_legacy_corpus():
    findings = lint_file(CORPUS / "bad_operators.py")
    assert not [f for f in findings if f.code in EFFECT_CODES]


def test_shipped_package_is_clean_under_effect_rules():
    from repro.analysis.lint import default_root

    assert [f for f in lint_paths([default_root()]) if f.code in EFFECT_CODES] == []


# ----------------------------------------------------------------------
# analyzer verdicts on inline operators
# ----------------------------------------------------------------------
def test_commutative_dst_scatter_is_partition_pure():
    src = """
import numpy as np
from repro.core.ops import EdgeOperator

class AccumOp(EdgeOperator):
    combine = "add"
    def __init__(self, accum, contrib):
        self.accum = accum
        self.contrib = contrib
    def process_edges(self, src, dst):
        np.add.at(self.accum, dst, self.contrib[src])
        return dst
"""
    summary = _analyze(src, "AccumOp", declared_combine="add")
    assert summary.level is SafetyLevel.PARTITION_PURE
    assert summary.violations == []
    assert summary.written_arrays() == {"accum": {"dst"}}


def test_interprocedural_helper_write_is_attributed_to_the_operator():
    src = (CORPUS / "bad_effects.py").read_text(encoding="utf-8")
    summary = _analyze(src, "HelperScatterOp", declared_combine="add")
    assert summary.level is SafetyLevel.UNSAFE
    assert [v.code for v in summary.violations] == ["GL006"]
    # the write happened inside _bump(); the summary still sees it.
    assert "hits" in summary.written_arrays()


def test_aliased_scatter_without_declared_combine_is_order_sensitive():
    src = (CORPUS / "bad_effects.py").read_text(encoding="utf-8")
    summary = _analyze(src, "AliasNoCombineOp", declared_combine=None)
    assert summary.level is SafetyLevel.ORDER_SENSITIVE
    assert [v.code for v in summary.violations] == ["GL007"]


def test_global_escape_is_unsafe():
    src = (CORPUS / "bad_effects.py").read_text(encoding="utf-8")
    summary = _analyze(src, "ClosureEscapeOp", declared_combine="or")
    assert summary.level is SafetyLevel.UNSAFE
    assert [v.code for v in summary.violations] == ["GL008"]


#: the arms that detect or refuse, one minimal body each:
#: (body, declared combine, level, GL codes, write set).
DETECT_OR_REFUSE = {
    "fixed slot": ("self.acc[0] = 1.0", "add", "unsafe", ["GL006"], {"acc": {"const"}}),
    "alias of state": (
        "a = self.acc\nnp.add.at(a, src, 1.0)", "add", "unsafe", ["GL006"], {"acc": {"src"}},
    ),
    "scatter into a parameter": (
        "np.add.at(src, dst, 1)", "add", "unsafe", ["GL008"], {},
    ),
    "store into a parameter": ("dst[src] = 0", "add", "unsafe", ["GL008"], {}),
    "fresh local is private": (
        "t = np.zeros(4)\nt[src] = 1.0\nnp.add.at(t, src, 1.0)", "add", "partition-pure", [], {},
    ),
    "a copy of state is private too": (
        "t = self.acc.copy()\nt[src] = 1.0", "add", "partition-pure", [], {},
    ),
    "fresh on one path only": (
        "if src.size:\n    x = self.acc\nelse:\n    x = np.zeros(3)\nx[src] = 1.0",
        "add", "unsafe", ["GL008"], {},
    ),
    "claim over a cross-partition read, no combine": (
        "self.acc[np.unique(dst)] = self.acc[src][0]", None, "order-sensitive",
        ["GL007"], {"acc": {"dst"}},
    ),
    "fixed-slot read of a written array": (
        "np.add.at(self.acc, dst, self.acc[0])", None, "order-sensitive",
        ["GL007"], {"acc": {"dst"}},
    ),
    "state inside a tuple operand is read whole": (
        "np.add.at(self.acc, dst, np.concatenate((self.acc, self.acc))[src])", None,
        "order-sensitive", ["GL007"], {"acc": {"dst"}},
    ),
    "store through a call result": (
        "self.acc.copy()[dst] = 1.0", "add", "unknown", [], {},
    ),
    "scatter into a call result": (
        "np.add.at(self.acc.copy(), dst, 1.0)", "add", "unknown", [], {},
    ),
    "call through self that resolves nowhere": (
        "self.helper(dst)", "add", "unknown", [], {},
    ),
    "inverted ids are not ids": (
        "np.add.at(self.acc, ~dst, 1.0)", "add", "unknown", [], {"acc": {"unknown"}},
    ),
    "a cast may wrap ids": (
        "np.add.at(self.acc, dst.astype(np.int8), 1.0)", "add", "unknown", [],
        {"acc": {"unknown"}},
    ),
    "bare return, join with a one-sided name": (
        "if src.size:\n    idx = dst\n    return\nnp.add.at(self.acc, idx, 1.0)",
        "add", "unknown", [], {"acc": {"unknown"}},
    ),
    "a fixed slice is fixed slots": (
        "self.acc[:8] = 1.0", "add", "unsafe", ["GL006"], {"acc": {"const"}},
    ),
    "a slice of ids is ids": (
        "self.acc[dst[2:]] = 1.0", "add", "partition-pure", [], {"acc": {"dst"}},
    ),
    "a slice with moving bounds": (
        "self.acc[src[0]:] = 1.0", "add", "unknown", [], {"acc": {"unknown"}},
    ),
}


@pytest.mark.parametrize("case", DETECT_OR_REFUSE)
def test_detect_or_refuse_arms(case):
    body, combine, level, codes, writes = DETECT_OR_REFUSE[case]
    summary = _analyze_body(body, combine)
    assert summary.level.value == level, summary.reasons
    assert [v.code for v in summary.violations] == codes
    assert summary.written_arrays() == writes


#: ``repro.core.ops.scatter_add_gather`` as the pass models it, and every
#: way a call may fall outside that model:
#: (module header, process_edges body, level, GL codes, write set, read set).
_FROM_OPS = "from repro.core.ops import scatter_add_gather"
HELPER_CALLS = {
    "the modelled call": (
        _FROM_OPS, "scatter_add_gather(self.acc, dst, self.x, src)",
        "partition-pure", [], {"acc": {"dst"}}, {"x": {"src"}},
    ),
    "under another name": (
        _FROM_OPS + " as sag", "sag(self.acc, dst, self.x, src)",
        "partition-pure", [], {"acc": {"dst"}}, {"x": {"src"}},
    ),
    "a fresh x reads no state": (
        _FROM_OPS, "scatter_add_gather(self.acc, dst, np.ones(4), src)",
        "partition-pure", [], {"acc": {"dst"}}, {},
    ),
    "scattering through src": (
        _FROM_OPS, "scatter_add_gather(self.acc, src, self.x, dst)",
        "unsafe", ["GL006"], {"acc": {"src"}}, {"x": {"dst"}},
    ),
    "into a parameter": (
        _FROM_OPS, "scatter_add_gather(dst, dst, self.x, src)", "unsafe", ["GL008"], {}, {"x": {"src"}},
    ),
    "keyword arguments": (
        _FROM_OPS, "scatter_add_gather(self.acc, dst, x=self.x, src=src)", "unknown", [], {}, {},
    ),
    "three arguments": (
        _FROM_OPS, "scatter_add_gather(self.acc, dst, self.x)", "unknown", [], {}, {},
    ),
    "five arguments": (
        _FROM_OPS, "scatter_add_gather(self.acc, dst, self.x, src, self.w)",
        "partition-pure", [], {"acc": {"dst"}}, {"x": {"src"}, "w": {"full"}},
    ),
    "five arguments, data a fresh value": (
        _FROM_OPS, "scatter_add_gather(self.acc, dst, self.x, src, np.ones(4))",
        "partition-pure", [], {"acc": {"dst"}}, {"x": {"src"}},
    ),
    "six arguments": (
        _FROM_OPS, "scatter_add_gather(self.acc, dst, self.x, src, None, None)",
        "unknown", [], {}, {},
    ),
    "acc is data": (
        _FROM_OPS, "scatter_add_gather(self.acc, dst, self.x, src, self.acc)", "unknown", [], {}, {},
    ),
    "acc is x": (
        _FROM_OPS, "scatter_add_gather(self.acc, dst, self.acc, src)", "unknown", [], {}, {},
    ),
    "acc is x through a local": (
        _FROM_OPS, "a = self.acc\nscatter_add_gather(a, dst, self.acc, src)", "unknown", [], {}, {},
    ),
    "imported from elsewhere": (
        "from elsewhere.ops import scatter_add_gather",
        "scatter_add_gather(self.acc, dst, self.x, src)", "unknown", [], {}, {},
    ),
    "a relative import in a module of unknown name": (
        "from ..core.ops import scatter_add_gather",
        "scatter_add_gather(self.acc, dst, self.x, src)", "unknown", [], {}, {},
    ),
    "not imported at all": (
        "", "scatter_add_gather(self.acc, dst, self.x, src)", "unknown", [], {}, {},
    ),
    "shadowed by a local": (
        _FROM_OPS, "scatter_add_gather = np.add.at\nscatter_add_gather(self.acc, src, 1.0)",
        "unknown", [], {}, {},
    ),
    "shadowed by a parameter's default elsewhere in the module": (
        _FROM_OPS + "\ndef other(scatter_add_gather=None):\n    return 0",
        "scatter_add_gather(self.acc, dst, self.x, src)", "unknown", [], {}, {},
    ),
    "rebound at module level": (
        _FROM_OPS + "\nscatter_add_gather = np.add.at",
        "scatter_add_gather(self.acc, dst, self.x, src)", "unknown", [], {}, {},
    ),
    "imported twice": (
        _FROM_OPS + "\nfrom elsewhere import scatter_add_gather",
        "scatter_add_gather(self.acc, dst, self.x, src)", "unknown", [], {}, {},
    ),
    "imported inside the method": (
        "", _FROM_OPS + "\nscatter_add_gather(self.acc, dst, self.x, src)", "unknown", [], {}, {},
    ),
}


@pytest.mark.parametrize("case", HELPER_CALLS)
def test_the_scatter_helper_is_modelled_in_exactly_one_shape(case):
    header, body, level, codes, writes, reads = HELPER_CALLS[case]
    lines = [
        "import numpy as np", *header.splitlines(), "class P(EdgeOperator):",
        "    def process_edges(self, src, dst):",
        *("        " + line for line in body.splitlines()), "        return dst",
    ]
    summary = _analyze("\n".join(lines), "P", declared_combine="add")
    assert summary.level.value == level, summary.reasons
    assert [v.code for v in summary.violations] == codes
    assert summary.written_arrays() == writes
    got_reads: dict = {}
    for effect in summary.effects:
        if effect.kind == "read":
            got_reads.setdefault(effect.array, set()).add(effect.space)
    assert got_reads == reads


#: a weighted operator's third batch argument is an edge-parallel value,
#: never an index space: (process_edges body, level, GL codes, write set).
WEIGHTED_BODIES = {
    "read beside the ids": (
        "np.minimum.at(self.acc, dst, self.x[src] + w)", "partition-pure", [], {"acc": {"dst"}},
    ),
    "the helper's data": (
        "scatter_add_gather(self.acc, dst, self.x, src, w)", "partition-pure", [],
        {"acc": {"dst"}},
    ),
    "scattered through": ("np.add.at(self.acc, w, 1.0)", "unknown", [], {"acc": {"unknown"}}),
    "stored through": ("self.acc[w] = 1.0", "unknown", [], {"acc": {"unknown"}}),
    "written": ("w[dst] = 0.0", "unsafe", ["GL008"], {}),
    "hashed by the operator itself": (
        "np.add.at(self.acc, dst, self.weight_fn(src, dst))", "unknown", [], {"acc": {"dst"}},
    ),
}


@pytest.mark.parametrize("case", WEIGHTED_BODIES)
def test_the_weight_argument_is_a_value_never_ids(case):
    body, level, codes, writes = WEIGHTED_BODIES[case]
    src = (
        f"import numpy as np\n{_FROM_OPS}\nclass P(EdgeOperator):\n"
        f"    def process_edges(self, src, dst, w):\n        {body}\n        return dst\n"
    )
    summary = _analyze(src, "P", declared_combine="min" if "minimum" in body else "add")
    assert summary.level.value == level, summary.reasons
    assert [v.code for v in summary.violations] == codes
    assert summary.written_arrays() == writes


def test_a_shadowing_def_is_analysed_as_the_def_it_is():
    src = (
        "import numpy as np\n" + _FROM_OPS + "\n"
        "def scatter_add_gather(acc, dst, x, src):\n    np.add.at(acc, src, 1.0)\n"
        "class P(EdgeOperator):\n    def process_edges(self, src, dst):\n"
        "        scatter_add_gather(self.acc, dst, self.x, src)\n        return dst\n"
    )
    summary = _analyze(src, "P", declared_combine="add")
    assert summary.level is SafetyLevel.UNSAFE and summary.written_arrays() == {"acc": {"src"}}


def test_relative_imports_resolve_against_the_module_name():
    from repro.analysis.callgraph import ModuleCallGraph

    tree = ast.parse("from ..core.ops import scatter_add_gather as sag\nfrom . import x\n")
    assert ModuleCallGraph.build(tree).imported == {}
    assert ModuleCallGraph.build(tree, "repro.algorithms.pagerank").imported == {
        "sag": "repro.core.ops.scatter_add_gather", "x": "repro.algorithms.x",
    }


def test_a_computed_combine_is_an_undeclared_one():
    src = "class P(EdgeOperator):\n    combine = PICKED\n    def process_edges(self, s, d):\n        return d"
    assert _analyze(src, "P").combine is None


def test_safety_lattice_join_is_worst_of_both():
    assert SafetyLevel.PARTITION_PURE.join(SafetyLevel.UNSAFE) is SafetyLevel.UNSAFE
    assert SafetyLevel.ORDER_SENSITIVE.join(SafetyLevel.UNKNOWN) is SafetyLevel.UNKNOWN
    assert (
        SafetyLevel.PARTITION_PURE.join(SafetyLevel.PARTITION_PURE)
        is SafetyLevel.PARTITION_PURE
    )


# ----------------------------------------------------------------------
# the split rule: may a run of partitions reach process_edges as one batch?
# ----------------------------------------------------------------------
def _split_reasons(cls) -> list[str]:
    """Why ``cls`` is not edge-local."""
    tree, graph = _module_tables(cls.__module__)
    summary = analyze_operator(tree, cls.__name__, graph=graph, declared_combine=cls.combine)
    assert operator_report(cls).edge_local == (not summary.split_reasons)
    return summary.split_reasons


#: the ten shipped operators and why each is, or is not, edge-local.
SHIPPED_SPLIT = {
    **dict.fromkeys((PageRankOp, PRDeltaOp, SPMVOp, BPOp, MaxPriorityOp, KnockOp), []),
    CCOp: ["reads labels, which it writes, at src", ".size"],
    BellmanFordOp: ["reads dist, which it writes, at src", ".size"],
    BFSOp: [".any()", "np.unique", "a subscript by positions"],
    BitOrOp: [".size"],  # conservative: an empty batch's early return changes nothing
}

#: the corpus operators that break the rule, one clause each.
CORPUS_SPLIT = {
    bad_effects.SourceReadOp: ["reads acc, which it writes, at src"],
    bad_effects.PerBatchMeanOp: [".size"],
    bad_effects.BatchSumOp: [".sum()"],
    bad_effects.FirstWriterOp: ["np.unique", "a subscript by positions"],
    bad_effects.PrefixOp: ["a subscript by positions"],
    bad_effects.PositionIndexOp: ["np.flatnonzero", "a subscript by positions"],
    bad_effects.MaskedSubsetOp: [],
}


@pytest.mark.parametrize(
    "cls", [*SHIPPED_SPLIT, *CORPUS_SPLIT], ids=lambda cls: cls.__name__
)
def test_each_operator_gets_its_split_verdict_for_its_reason(cls):
    reasons = {**SHIPPED_SPLIT, **CORPUS_SPLIT}[cls]
    report = operator_report(cls)
    assert report.level == "partition-pure" and report.cond_local
    assert _split_reasons(cls) == reasons
    assert report.to_dict()["edge_local"] is (not reasons)


def test_an_operator_the_pass_cannot_certify_is_not_edge_local():
    assert _split_reasons(unmodelled_forms.WithOp)[0] == "not partition-pure"
    assert _split_reasons(NeighbourCondOp) == [
        "cond is not local", "reads labels, which it writes, at src",
    ]
    assert not operator_report(UncertifiableOp).edge_local


# ----------------------------------------------------------------------
# certificates over the registered algorithm matrix
# ----------------------------------------------------------------------
def test_every_registered_algorithm_gets_a_certificate():
    certs = certify_all()
    assert sorted(certs) == sorted(registry.names())
    for cert in certs.values():
        assert isinstance(cert, SafetyCertificate)
        assert cert.operators  # every spec names its operators
        assert cert.verify()


@pytest.mark.parametrize("code", registry.names())
def test_registered_algorithms_certify_partition_pure(code):
    cert = certify_algorithm(code)
    assert cert.level == SafetyLevel.PARTITION_PURE.value, cert.operators


@pytest.mark.parametrize("code", ["BFS", "PR", "CC"])
def test_flagship_algorithms_are_partition_pure(code):
    assert certify_algorithm(code).partition_pure


def test_tampered_certificate_fails_verification():
    cert = certify_algorithm("PR")
    assert cert.verify()
    forged = dataclasses.replace(cert, level=SafetyLevel.UNSAFE.value)
    assert not forged.verify()
    unsigned = dataclasses.replace(cert, signature="")
    assert not unsigned.verify()


def test_runtime_purity_check_matches_certificates(engine):
    op = _probe_op("PR", engine)
    assert operator_is_partition_pure(op)
    assert not operator_is_partition_pure(
        UncertifiableOp(np.zeros(engine.num_vertices))
    )


# ----------------------------------------------------------------------
# static inferred write sets contain the dynamic observed write sets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", registry.names())
def test_observed_writes_contained_in_inferred_effects(code):
    assert cross_validate_effects(code, edges=EDGES) == []


def test_observed_write_attrs_subset_of_report(engine):
    inner = _probe_op("PR", engine)
    inferred = operator_report(type(inner)).written_arrays()
    recorder = ShadowWriteRecorder(inner)
    engine.edge_map(Frontier.full(engine.num_vertices), recorder)
    observed = {attr for ws in recorder.write_sets for attr in ws}
    assert observed
    assert observed <= set(inferred)


def test_full_sanitizer_including_cross_validation_is_clean():
    assert run_sanitizer() == []


# ----------------------------------------------------------------------
# engine: certified operators skip the per-batch guards, bit-identically
# ----------------------------------------------------------------------
def _pr_engine(trust):
    store = GraphStore.build(EDGES, num_partitions=8)
    return Engine(
        store,
        EngineOptions(num_threads=4, trust_certificates=trust),
    )


def test_certified_operator_skips_guards_and_matches_guarded_path():
    trusted = _pr_engine(True)
    guarded = _pr_engine(False)
    r_trusted = pagerank(trusted, iterations=5)
    r_guarded = pagerank(guarded, iterations=5)
    np.testing.assert_array_equal(r_trusted.ranks, r_guarded.ranks)

    assert trusted.guards_skipped > 0
    assert trusted.guard_invocations == 0
    assert guarded.guards_skipped == 0
    assert guarded.guard_invocations > 0


def test_uncertified_operator_still_pays_the_guard():
    engine = _pr_engine(True)
    op = UncertifiableOp(np.zeros(engine.num_vertices))
    engine.edge_map(Frontier.full(engine.num_vertices), op)
    assert engine.guard_invocations > 0
    assert engine.guards_skipped == 0


def test_parallel_requires_a_partition_pure_certificate():
    store = GraphStore.build(EDGES, num_partitions=8)
    engine = Engine(store, EngineOptions(num_threads=4, backend="process:workers=2"))
    op = UncertifiableOp(np.zeros(engine.num_vertices))
    with pytest.raises(ValidationError, match="certif"):
        engine.edge_map(Frontier.full(engine.num_vertices), op)
    engine.close()


@pytest.mark.parametrize("op_class", UNMODELLED, ids=lambda cls: cls.__name__)
def test_unmodelled_forms_are_unknown_refused_and_run_guarded(op_class):
    """A form outside the grammar is never certified: the strict backend
    refuses it, ``strict=0`` runs it in-process with serial's exact bits."""
    assert operator_report(op_class).level == "unknown"
    store = GraphStore.build(EDGES, num_partitions=8)

    def run(backend):
        with Engine(store, EngineOptions(num_threads=4, backend=backend)) as engine:
            op = op_class(np.zeros(engine.num_vertices))
            assert not operator_is_partition_pure(op)
            out = engine.edge_map(Frontier.full(engine.num_vertices), op)
            assert engine.backend_stats.batches_dispatched == 0
            return op.acc, out.as_sparse()

    with pytest.raises(ValidationError, match="certif"):
        run("process:workers=2")
    for got, want in zip(run("process:workers=2:strict=0"), run("serial")):
        np.testing.assert_array_equal(got, want)


def test_parallel_admits_certified_operators(engine):
    store = GraphStore.build(EDGES, num_partitions=8)
    eng = Engine(store, EngineOptions(num_threads=4, backend="process:workers=2"))
    inner = _probe_op("PR", eng)
    out = eng.edge_map(Frontier.full(eng.num_vertices), inner)
    assert out is not None
    eng.close()
