"""Graphlint static rules: corpus coverage, suppressions, shipped-code gate."""

from pathlib import Path

import pytest

from repro.analysis.effects import UFUNC_COMBINE
from repro.analysis.lint import (
    apply_baseline,
    default_root,
    lint_file,
    lint_paths,
    lint_paths_report,
    lint_source,
    lint_source_report,
    load_baseline,
    write_baseline,
)
from repro.analysis.rules import rule_catalogue

CORPUS = Path(__file__).parent / "corpus"
ALL_CODES = ["GL001", "GL002", "GL003", "GL004", "GL005"]
CATALOGUE_CODES = [f"GL{n:03d}" for n in range(1, 12)]


def _codes(findings):
    return sorted(f.code for f in findings)


# ----------------------------------------------------------------------
# corpus: every rule fires exactly once
# ----------------------------------------------------------------------
def test_catalogue_matches_expected_codes():
    catalogue = dict(rule_catalogue())
    assert sorted(catalogue) == CATALOGUE_CODES
    assert all(summary for summary in catalogue.values())


def test_each_rule_fires_exactly_once_on_corpus():
    findings = lint_file(CORPUS / "bad_operators.py")
    assert _codes(findings) == ALL_CODES


def test_findings_carry_renderable_locations():
    for finding in lint_file(CORPUS / "bad_operators.py"):
        assert finding.line > 0
        assert finding.col > 0
        assert finding.path.endswith("bad_operators.py")
        rendered = finding.render()
        assert finding.code in rendered
        assert f":{finding.line}:" in rendered


def test_inline_suppression_silences_the_rule():
    assert lint_file(CORPUS / "suppressed.py") == []


# ----------------------------------------------------------------------
# rule behaviour on inline sources
# ----------------------------------------------------------------------
def test_gl001_flags_min_style_reassignment():
    src = """
import numpy as np
from repro.core.ops import EdgeOperator

class MinAssignOp(EdgeOperator):
    def __init__(self, d):
        self.d = d
    def process_edges(self, src, dst):
        self.d[dst] = np.minimum(self.d[dst], 1.0)
        return dst
"""
    assert _codes(lint_source(src)) == ["GL001"]


def test_gl001_ignores_non_operator_classes():
    src = """
class Accumulator:
    def __init__(self, state):
        self.state = state
    def process_edges(self, src, dst):
        self.state[dst] += 1.0
        return dst
"""
    assert lint_source(src) == []


def test_gl001_in_a_helper_is_reported_on_the_helpers_line():
    src = """
from repro.core.ops import EdgeOperator

class HelperAccumOp(EdgeOperator):
    def process_edges(self, src, dst):
        self._bump(dst)
        return dst
    def _bump(self, ids):
        self.state[ids] += 1.0
"""
    assert [(f.code, f.line) for f in lint_source(src)] == [("GL001", 9)]


#: the ufuncs whose ``.at`` scatter commutes across the partition schedule.
ORDER_SAFE_UFUNCS = [
    "add", "subtract", "multiply", "minimum", "maximum", "fmin", "fmax",
    "bitwise_or", "bitwise_and", "bitwise_xor", "logical_or", "logical_and",
    "gcd", "lcm",
]


def test_one_ufunc_table_decides_gl002():
    assert sorted(UFUNC_COMBINE) == sorted(ORDER_SAFE_UFUNCS)


@pytest.mark.parametrize(
    "ufunc, codes",
    [*((name, []) for name in ORDER_SAFE_UFUNCS),
     *((name, ["GL002"]) for name in ("divide", "power", "true_divide"))],
)
def test_gl002_judges_the_scatter_ufunc(ufunc, codes):
    src = f"""
import numpy as np
from repro.core.ops import EdgeOperator

class ScatterOp(EdgeOperator):
    def process_edges(self, src, dst):
        np.{ufunc}.at(self.acc, dst, 2)
        return dst
"""
    assert _codes(lint_source(src)) == codes


def test_an_inherited_violation_is_reported_once():
    src = """
import numpy as np
from repro.core.ops import EdgeOperator

class A(EdgeOperator):
    def process_edges(self, src, dst):
        np.add.at(self.state, src, 1.0)
        return dst

class B(A):
    combine = "add"
"""
    assert [(f.code, f.line) for f in lint_source(src)] == [("GL006", 7)]


def test_gl002_allows_order_safe_ufuncs():
    src = """
import numpy as np
from repro.core.ops import EdgeOperator

class SafeOp(EdgeOperator):
    def process_edges(self, src, dst):
        np.add.at(self.a, dst, 1.0)
        np.minimum.at(self.b, dst, 0.0)
        np.bitwise_or.at(self.c, dst, 1)
        return dst
"""
    assert lint_source(src) == []


def test_gl003_requires_both_override_hooks():
    base = """
from repro.core.ops import EdgeOperator

class HalfOverrideOp(EdgeOperator):
    def __init__(self):
        self.cache = dict()
    def snapshot(self):
        return dict(self.cache)
"""
    # snapshot alone is not enough: restore is still the inherited no-op.
    assert _codes(lint_source(base)) == ["GL003"]
    full = base + """
    def restore(self, snap):
        self.cache = dict(snap)
"""
    assert lint_source(full) == []


def test_gl004_flags_subscripted_ids_return():
    src = """
from repro.core.ops import EdgeOperator

class SubsetCondOp(EdgeOperator):
    def cond(self, dst_ids):
        return dst_ids[self.active[dst_ids]]
    def process_edges(self, src, dst):
        return dst
"""
    assert _codes(lint_source(src)) == ["GL004"]


def test_gl004_accepts_none_and_parallel_masks():
    src = """
from repro.core.ops import EdgeOperator

class GoodCondOp(EdgeOperator):
    def cond(self, dst_ids):
        if self.done:
            return None
        return ~self.visited[dst_ids]
    def process_edges(self, src, dst):
        return dst
"""
    assert lint_source(src) == []


def test_gl005_flags_unseeded_rngs():
    src = """
import numpy as np

def jitter(xs):
    rng = np.random.default_rng()
    return xs + np.random.rand(len(xs)) + rng.random()
"""
    assert _codes(lint_source(src)) == ["GL005", "GL005"]


def test_gl005_allows_seeded_rng_and_perf_counter():
    src = """
import time
import numpy as np

def sample(seed):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    return rng.random(), time.perf_counter() - t0
"""
    assert lint_source(src) == []


def test_transitive_same_module_subclasses_are_discovered():
    src = """
from repro.core.ops import EdgeOperator

class Base(EdgeOperator):
    def process_edges(self, src, dst):
        return dst

class Leaf(Base):
    def process_edges(self, src, dst):
        self.state[dst] += 1.0
        return dst
"""
    assert _codes(lint_source(src)) == ["GL001"]


# ----------------------------------------------------------------------
# suppression syntax
# ----------------------------------------------------------------------
def test_comment_only_directive_applies_to_next_line():
    src = """
import time

# graphlint: disable=GL005
t = time.time()
"""
    assert lint_source(src) == []


def test_bare_disable_suppresses_every_code():
    src = """
import time

t = time.time()  # graphlint: disable
"""
    assert lint_source(src) == []


def test_directive_for_other_code_does_not_suppress():
    src = """
import time

t = time.time()  # graphlint: disable=GL001
"""
    assert _codes(lint_source(src)) == ["GL005"]


# ----------------------------------------------------------------------
# unused suppressions and report partitioning
# ----------------------------------------------------------------------
def test_unused_suppression_reported_as_gl011():
    src = """
import time

t = time.perf_counter()  # graphlint: disable=GL005
"""
    report = lint_source_report(src)
    assert report.findings == []
    assert _codes(report.unused) == ["GL011"]
    assert "GL005" in report.unused[0].message


def test_used_suppression_is_not_gl011():
    src = """
import time

t = time.time()  # graphlint: disable=GL005
"""
    report = lint_source_report(src)
    assert report.findings == []
    assert report.unused == []
    assert _codes(report.suppressed) == ["GL005"]


def test_directive_inside_string_literal_is_not_a_directive():
    src = '''
DOC = """
example:  # graphlint: disable=GL005
"""
'''
    report = lint_source_report(src)
    assert report.unused == []


def test_findings_are_sorted_deterministically():
    report = lint_paths_report([CORPUS])
    for bucket in (report.findings, report.suppressed, report.unused):
        keys = [(f.path, f.line, f.col, f.code) for f in bucket]
        assert keys == sorted(keys)
    everything = report.all_findings()
    keys = [(f.path, f.line, f.col, f.code) for f in everything]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# baseline files
# ----------------------------------------------------------------------
def test_baseline_round_trip_silences_exactly_the_recorded_findings(tmp_path):
    report = lint_paths_report([CORPUS])
    findings = report.all_findings()
    assert findings
    path = tmp_path / "baseline.json"
    write_baseline(findings, path)
    baseline = load_baseline(path)
    assert apply_baseline(findings, baseline) == []
    # one extra finding of a baselined code still surfaces
    extra = findings[0]
    assert apply_baseline(findings + [extra], baseline) == [extra]


# ----------------------------------------------------------------------
# the shipped package must be clean (the CI gate's contract)
# ----------------------------------------------------------------------
def test_shipped_package_has_zero_findings():
    assert lint_paths([default_root()]) == []


def test_shipped_package_has_no_stale_suppressions():
    assert lint_paths_report([default_root()]).unused == []
