"""The write contract's race checks, as the lattice harness runs them
(``tests.lattice.contract_lines`` and its serial oracle)."""

from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import registry
from repro.analysis.certificate import operator_is_partition_pure
from repro.analysis.lint import lint_paths_report
from repro.core import Engine, EngineOptions
from repro.frontier.frontier import Frontier
from repro.layout import GraphStore
from tests.analysis.corpus import suppressed
from tests.lattice import Config, check, contract_lines, graph

RACE = r"LastWriterDemoOp\.state: the task over \[\d+, \d+\) wrote index \d+ outside it"


@pytest.mark.parametrize("code", registry.names())
def test_algorithm_batch_invariance_is_bit_identical(code):
    check(Config(code, "tiny_rmat", 8, partition_order="shuffle", order_seed=11))


@pytest.mark.parametrize("code", registry.names())
def test_shadow_probe_has_no_conflicts(code):
    """COO tasks read sources of every partition; each keeps to its range."""
    check(Config(code, "tiny_rmat", 24, forced_layout="coo"))


def _demo(partitions: int, **options) -> np.ndarray:
    """The state one full-frontier COO edge-map of ``state[src] = dst`` leaves."""
    store = GraphStore.build(graph("tiny_rmat"), num_partitions=partitions)
    with Engine(store, EngineOptions(forced_layout="coo", **options)) as engine:
        op = suppressed.LastWriterDemoOp(np.full(store.num_vertices, -1, dtype=np.int64))
        engine.edge_map(Frontier.full(store.num_vertices), op)
    return op.state


def test_demo_op_write_conflicts_are_flagged(monkeypatch):
    contract_lines(monkeypatch)
    with pytest.raises(AssertionError, match=RACE):
        _demo(8)


def test_demo_op_breaks_batch_invariance():
    """The serial oracle decides the race: the last partition visited wins."""
    assert not np.array_equal(_demo(1), _demo(8, partition_order="reverse"))


def test_demo_findings_cover_both_layers(monkeypatch):
    """The effect pass refuses to certify the race; the write-set line names it."""
    report = lint_paths_report([Path(suppressed.__file__)])
    assert "GL006" in {finding.code for finding in report.suppressed}
    assert not operator_is_partition_pure(suppressed.LastWriterDemoOp(np.zeros(4)))
    contract_lines(monkeypatch)
    with pytest.raises(AssertionError, match=RACE):
        _demo(24)
