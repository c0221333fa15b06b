"""The packed-key layout builders against the lexsort builders they replaced.

``repro.graph.edgelist.sorted_pairs`` sorts ``key << 32 | value`` as one
``uint64`` array.  Every array the three-copy store, the pruned CSRs, a
sorted edge list and a preprocessed grid hold must equal, dtype included,
what the ``np.lexsort`` builders kept in ``tests/references.py`` give.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import VID_DTYPE
from repro.durable import flip_last_byte
from repro.graph import generators as gen
from repro.graph.csr import build_csc, build_csr
from repro.graph.edgelist import EdgeList, sorted_pairs
from repro.layout import grid
from repro.layout.coo import EDGE_ORDERS, PartitionedCOO
from repro.layout.store import GraphStore
from tests.references import (
    reference_compressed,
    reference_layouts,
    reference_partitioned_csr,
    reference_shard_edges,
)

BALANCES = ("edges", "vertices")
SHAPES = ("random", "self_loops", "no_edges", "one_vertex", "one_sink")


@st.composite
def awkward_graphs(draw):
    """Small graphs with duplicate edges, self-loops, no edges, a single
    vertex, or every edge into one vertex; plus a partition count from
    {1, 2, |V|} or one drawn between them, which buckets a COO with empty
    middle partitions whenever the edges miss a range."""
    shape = draw(st.sampled_from(SHAPES))
    n = 1 if shape == "one_vertex" else draw(st.integers(2, 30))
    m = 0 if shape == "no_edges" else draw(st.integers(1, 90))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.array(draw(ids), dtype=np.int32)
    dst = np.array(draw(ids), dtype=np.int32)
    if shape == "self_loops":
        dst[::2] = src[::2]
    elif shape == "one_sink":
        dst[:] = draw(st.integers(0, n - 1))
    if m:  # duplicates, always
        src, dst = np.concatenate([src, src[:3]]), np.concatenate([dst, dst[:3]])
    p = draw(st.sampled_from(sorted({1, min(2, n), draw(st.integers(1, n)), n})))
    return EdgeList(n, src, dst), p


def _assert_bitwise_equal(got: np.ndarray, want: np.ndarray, label: str) -> None:
    assert got.dtype == want.dtype, label
    assert np.array_equal(got, want), label


def _store_arrays(store: GraphStore) -> dict[str, np.ndarray]:
    arrays = {}
    for name, layout in (("csr", store.csr), ("csc", store.csc.csc)):
        for field in ("vertex_ids", "index", "neighbors"):
            arrays[f"{name}.{field}"] = getattr(layout, field)
    for field in ("src", "dst", "partition_index"):
        arrays[f"coo.{field}"] = getattr(store.coo, field)
    return arrays


@settings(max_examples=60, deadline=None)
@given(awkward_graphs())
def test_store_arrays_equal_the_lexsort_builders(case):
    g, p = case
    for order in EDGE_ORDERS:
        for balance in BALANCES:
            store = GraphStore.build(g, num_partitions=p, edge_order=order, balance=balance)
            got = _store_arrays(store)
            want = reference_layouts(
                g, num_partitions=p, edge_order=order, balance=balance
            )
            assert got.keys() == want.keys()
            for key in want:
                _assert_bitwise_equal(got[key], want[key], f"{key} {order}/{balance} P={p}")
            # a COO built without the store's CSR and CSC builds its own: the same arrays
            alone = PartitionedCOO.build(g, store.coo.partition, edge_order=order)
            for field in ("src", "dst", "partition_index"):
                _assert_bitwise_equal(
                    getattr(alone, field), got[f"coo.{field}"], f"alone {field} {order}"
                )
            # the COO owns its ids: no view of the CSR's or the CSC's neighbours
            for ids in (store.coo.src, store.coo.dst):
                assert ids.base is None and ids.flags.owndata
                for layout in (store.csr, store.csc.csc):
                    assert not np.shares_memory(ids, layout.neighbors)


@settings(max_examples=40, deadline=None)
@given(awkward_graphs())
def test_pruned_layouts_and_sorted_edge_lists_equal_the_lexsort_builders(case):
    g, _ = case
    for builder, axis in ((build_csr, "out"), (build_csc, "in")):
        got = builder(g, pruned=True)
        for field, want in reference_compressed(g, axis, True).items():
            _assert_bitwise_equal(getattr(got, field), want, f"{axis} {field}")
    for key, order in (
        ("source", np.lexsort((g.dst, g.src))),
        ("destination", np.lexsort((g.src, g.dst))),
    ):
        s = g.sorted_by(key)
        _assert_bitwise_equal(s.src, g.src[order], f"{key} src")
        _assert_bitwise_equal(s.dst, g.dst[order], f"{key} dst")


def _digest(arrays) -> str:
    """One SHA-256 over every array's dtype and bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(array.dtype.str.encode() + array.tobytes())
    return h.hexdigest()


@settings(max_examples=40, deadline=None)
@given(awkward_graphs())
def test_partitioned_csr_equals_the_stable_argsort_builder(case):
    """Any grouping by home partition gives the same pruned CSRs, which
    sort their own edges: the packed destination sort and the parent's
    stable argsort must agree by digest, part by part."""
    g, p = case
    for balance in BALANCES:
        store = GraphStore.build(g, num_partitions=p, balance=balance)
        parts = store.build_partitioned_csr().parts
        want = reference_partitioned_csr(g, store.csc.partition)
        assert len(parts) == len(want) == p
        fields = ("vertex_ids", "index", "neighbors")
        got = _digest(getattr(part, field) for part in parts for field in fields)
        assert got == _digest(ref[field] for ref in want for field in fields), balance


# ----------------------------------------------------------------------
# sorted_pairs itself
# ----------------------------------------------------------------------
def test_sorted_pairs_extreme_ids():
    top = np.iinfo(VID_DTYPE).max  # 2**31 - 1
    keys = np.array([top, 0, top, 0, 5], dtype=VID_DTYPE)
    values = np.array([0, top, top, 0, 5], dtype=VID_DTYPE)
    k, v = sorted_pairs(keys, values)
    assert k.dtype == v.dtype == VID_DTYPE
    assert list(zip(k.tolist(), v.tolist())) == [
        (0, 0), (0, top), (5, 5), (top, 0), (top, top)
    ]


def test_sorted_pairs_empty():
    empty = np.empty(0, dtype=VID_DTYPE)
    k, v = sorted_pairs(empty, empty)
    assert k.shape == v.shape == (0,)
    assert k.dtype == v.dtype == VID_DTYPE


def test_sorted_pairs_reads_read_only_and_strided_views_and_leaves_them_alone():
    rng = np.random.default_rng(0)
    base = rng.integers(0, 50, size=(2, 400)).astype(VID_DTYPE)
    keys, values = base[0, ::2], base[1, 1::2]  # non-contiguous
    frozen = base.copy()
    frozen.setflags(write=False)
    for a, b in ((keys, values), (frozen[0], frozen[1])):
        before = (a.copy(), b.copy())
        k, v = sorted_pairs(a, b)
        order = np.lexsort((b, a))
        _assert_bitwise_equal(k, a[order], "keys")
        _assert_bitwise_equal(v, b[order], "values")
        assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])


@pytest.mark.parametrize(
    "keys, values",
    [
        (np.array([0, -1], dtype=VID_DTYPE), np.array([0, 0], dtype=VID_DTYPE)),
        (np.array([0, 1], dtype=VID_DTYPE), np.array([-5, 0], dtype=VID_DTYPE)),
        (np.array([0, 1], dtype=np.int64), np.array([0, 1], dtype=np.int64)),
        (np.array([0, 1], dtype=VID_DTYPE), np.array([0], dtype=VID_DTYPE)),
        # 2**32 entries without allocating them: a zero-stride view.
        (np.broadcast_to(VID_DTYPE(0), (2**32,)), np.broadcast_to(VID_DTYPE(0), (2**32,))),
    ],
    ids=["negative key", "negative value", "int64", "not parallel", "2**32 pairs"],
)
def test_sorted_pairs_rejects_what_it_cannot_pack(keys, values):
    with pytest.raises(ValueError):
        sorted_pairs(keys, values)


# ----------------------------------------------------------------------
# grids: what the parent wrote stays verifiable and repairable
# ----------------------------------------------------------------------
def _reference_rows(edges, stripes):
    """The parent's rows: full-length stripe masks over its lexsort."""
    src, dst, pid_src, _ = reference_shard_edges(edges, stripes)
    return [(src[pid_src == i], dst[pid_src == i]) for i in range(stripes.num_partitions)]


def _tree(directory: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


@pytest.mark.parametrize("stripe_mode", grid.STRIPE_MODES)
@pytest.mark.parametrize("num_stripes", [1, 3, 8])
def test_grid_blocks_and_manifest_match_the_reference_shard(
    tmp_path, monkeypatch, num_stripes, stripe_mode
):
    edges = gen.rmat(9, 8, seed=2)
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    grid.preprocess_grid(edges, ours, num_stripes, stripe_mode=stripe_mode)
    with monkeypatch.context() as patch:
        patch.setattr(grid, "_shard_edges", _reference_rows)
        manifest, _ = grid.preprocess_grid(edges, theirs, num_stripes, stripe_mode=stripe_mode)
    assert _tree(ours) == _tree(theirs)

    # A torn block of the reference-written grid heals to the same bytes.
    store = grid.GridStore(theirs, manifest, edges=edges)
    block = sorted(theirs.glob("block-*.grb"))[-1]
    good = block.read_bytes()
    flip_last_byte(block)
    i, j = (int(x) for x in block.stem.split("-")[1:])
    store.read_block(i, j)
    assert store.stats.repairs == 1
    assert block.read_bytes() == good


# ----------------------------------------------------------------------
# the memory property: no lexsort, no stable argsort
# ----------------------------------------------------------------------
@pytest.mark.parametrize("edge_order", EDGE_ORDERS)
def test_store_build_calls_no_lexsort_and_no_stable_argsort(monkeypatch, edge_order):
    """Counts, not bytes: numpy's stable argsort and lexsort allocate scratch
    that tracemalloc does not see, so the guard is that the build — the
    three-copy store and the partitioned CSR — never reaches them."""
    graph = gen.rmat(10, 8, seed=1)
    calls: list[str] = []
    real_lexsort, real_argsort = np.lexsort, np.argsort

    def lexsort(*args, **kwargs):
        calls.append(f"lexsort from {sys._getframe(1).f_globals['__name__']}")
        return real_lexsort(*args, **kwargs)

    def argsort(*args, **kwargs):
        if kwargs.get("kind") in ("stable", "mergesort"):
            calls.append(f"stable argsort from {sys._getframe(1).f_globals['__name__']}")
        return real_argsort(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", lexsort)
    monkeypatch.setattr(np, "argsort", argsort)
    for balance in BALANCES:
        store = GraphStore.build(graph, num_partitions=16, edge_order=edge_order, balance=balance)
        store.build_partitioned_csr()
    assert calls == []
