"""Algorithm registry (Table II) tests."""

import importlib
import pkgutil

import pytest

import repro.algorithms
from repro.algorithms import registry
from repro.core import Engine
from repro.core.ops import EdgeOperator
from repro.layout import GraphStore


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


def test_every_shipped_operator_is_one_a_registered_algorithm_drives():
    # `repro certify` certifies exactly the registry's operators, so an
    # operator the library ships but no algorithm drives goes uncertified.
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(repro.algorithms.__path__, "repro.algorithms.")
    ]
    shipped = {
        f"{module.__name__}:{name}"
        for module in modules
        for name, cls in vars(module).items()
        if isinstance(cls, type) and issubclass(cls, EdgeOperator)
        and cls.__module__ == module.__name__
    }
    driven = {path for spec in registry.ALGORITHMS.values() for path in spec.operators}
    assert shipped == driven
