"""Algorithm registry (Table II) tests."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro.algorithms
from repro.algorithms import registry
from repro.algorithms.pagerank import PageRankOp
from repro.core import Engine
from repro.core.ops import EdgeOperator
from repro.frontier.frontier import Frontier
from repro.layout import GraphStore
from tests.lattice import contract_lines


def test_table2_codes():
    assert registry.names() == ["BC", "CC", "PR", "BFS", "PRDelta", "SPMV", "BF", "BP"]


def test_table2_orientations():
    # Table II: BC, BFS, BF are vertex-oriented; the rest edge-oriented.
    vertex = {c for c, s in registry.ALGORITHMS.items() if s.orientation == "vertex"}
    assert vertex == {"BC", "BFS", "BF"}


def test_table2_traversal_directions():
    backward = {c for c, s in registry.ALGORITHMS.items() if s.traversal == "backward"}
    assert backward == {"BC", "CC", "PR", "BFS"}


def test_balance_follows_orientation():
    for spec in registry.ALGORITHMS.values():
        expected = "vertices" if spec.orientation == "vertex" else "edges"
        assert spec.balance == expected


def test_get_unknown():
    with pytest.raises(KeyError, match="unknown algorithm"):
        registry.get("DIJKSTRA")


def test_default_source_is_max_degree(small_rmat):
    eng = Engine(GraphStore.build(small_rmat, num_partitions=2))
    s = registry.default_source(eng)
    deg = small_rmat.out_degrees()
    assert deg[s] == deg.max()


@pytest.mark.parametrize("code", registry.names())
def test_all_runners_execute(code, small_rmat):
    eng = Engine(GraphStore.build(small_rmat, num_partitions=4))
    result = registry.get(code).run(eng)
    assert result is not None


def test_update_scales_positive():
    for spec in registry.ALGORITHMS.values():
        assert spec.update_scale >= 1.0
    assert registry.get("BP").update_scale > registry.get("PR").update_scale


def _shipped_operators() -> dict[str, type]:
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(repro.algorithms.__path__, "repro.algorithms.")
    ]
    return {
        f"{module.__name__}:{name}": cls
        for module in modules
        for name, cls in vars(module).items()
        if isinstance(cls, type) and issubclass(cls, EdgeOperator)
        and cls.__module__ == module.__name__
    }


def test_every_shipped_operator_is_one_a_registered_algorithm_drives():
    # the e2e tracer wraps exactly the registry's operators, so an operator
    # the library ships but no algorithm drives would go untraced.
    driven = {path for spec in registry.ALGORITHMS.values() for path in spec.operators}
    assert set(_shipped_operators()) == driven


class _UndeclaredWriteOp(PageRankOp):
    """PageRank's declaration, but it also zeroes ``contrib`` at ``dst``."""

    def process_edges(self, src, dst):
        self.contrib[dst] = 0.0
        return super().process_edges(src, dst)


def test_every_operator_declares_its_writes_and_exactly_four_are_edge_local(
    monkeypatch, small_rmat
):
    """Every shipped operator declares what it writes; the edge-local set
    (one batch per run, the thread pool) is exactly the four add-reductions
    that read no written array; and an operator that writes an array it did
    not declare fails the lattice's effects line by name."""
    shipped = _shipped_operators().values()
    undeclared = sorted(cls.__name__ for cls in shipped if cls.writes is None)
    assert not undeclared, undeclared
    for cls in shipped:
        assert all(name.isidentifier() for name in cls.writes), cls.__name__
    edge_local = sorted(cls.__name__ for cls in shipped if cls.edge_local)
    assert edge_local == ["BPOp", "PRDeltaOp", "PageRankOp", "SPMVOp"]

    contract_lines(monkeypatch)
    store = GraphStore.build(small_rmat, num_partitions=4)
    n = store.num_vertices
    with Engine(store) as engine:
        with pytest.raises(AssertionError, match=r"_UndeclaredWriteOp changed \['contrib'\]"):
            engine.edge_map(Frontier.full(n), _UndeclaredWriteOp(np.ones(n), np.zeros(n)))
