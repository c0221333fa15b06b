"""Unit tests for the on-disk edge grid: preprocessing, the manifest
commit point, verified/budgeted reads and repair-on-read."""

import numpy as np
import pytest

from repro._types import VID_DTYPE
from repro.errors import (
    CheckpointError,
    DiskFullError,
    GridError,
    TornBlockError,
    ValidationError,
)
from repro.graph import generators as gen
from repro.layout.grid import (
    GRID_MANIFEST,
    GridStore,
    choose_grid_stripes,
    grid_stripe_boundaries,
    preprocess_grid,
)
from repro.resilience import FaultPlan


@pytest.fixture
def edges():
    return gen.rmat(8, 6.0, seed=3)


# ----------------------------------------------------------------------
# choose_grid_stripes


def test_choose_stripes_default_without_budget():
    assert choose_grid_stripes(1000, 10_000, None) == 4


def test_choose_stripes_scales_with_budget():
    loose = choose_grid_stripes(1000, 100_000, 1 << 30)
    tight = choose_grid_stripes(1000, 100_000, 1 << 12)
    assert tight > loose


def test_choose_stripes_clamped():
    assert choose_grid_stripes(2, 10, 1) <= 2  # never more stripes than vertices
    assert choose_grid_stripes(10**6, 10**8, 1) <= 64


def test_choose_stripes_rejects_nonpositive_budget():
    with pytest.raises(ValidationError):
        choose_grid_stripes(100, 1000, 0)
    with pytest.raises(ValidationError):
        choose_grid_stripes(100, 1000, -5)


# ----------------------------------------------------------------------
# preprocess_grid


def test_preprocess_writes_committed_manifest(edges, tmp_path):
    manifest, _ = preprocess_grid(edges, tmp_path, 3)
    assert (tmp_path / GRID_MANIFEST).exists()
    assert manifest["num_stripes"] == 3
    assert manifest["num_vertices"] == edges.num_vertices
    assert sum(b["edges"] for b in manifest["blocks"]) == edges.num_edges
    for entry in manifest["blocks"]:
        assert (tmp_path / entry["file"]).exists()


def test_preprocess_deterministic(edges, tmp_path):
    m1, _ = preprocess_grid(edges, tmp_path / "a", 4)
    m2, _ = preprocess_grid(edges, tmp_path / "b", 4)
    assert m1["blocks"] == m2["blocks"]
    for entry in m1["blocks"]:
        assert (tmp_path / "a" / entry["file"]).read_bytes() == (
            tmp_path / "b" / entry["file"]
        ).read_bytes()


def test_preprocess_rejects_bad_stripes(edges, tmp_path):
    with pytest.raises(ValidationError):
        preprocess_grid(edges, tmp_path, 0)


def test_open_before_commit_fails(edges, tmp_path):
    # Block files alone do not make a grid: the manifest is the commit
    # point, so an interrupted preprocess leaves an unreadable directory.
    with pytest.raises(CheckpointError):
        GridStore.open(tmp_path)


# ----------------------------------------------------------------------
# GridStore reads


def test_round_trip_preserves_every_edge(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    src_all, dst_all = [], []
    for i in range(3):
        for j in range(3):
            block = grid.read_block(i, j)
            src_all.append(block.src)
            dst_all.append(block.dst)
    src = np.concatenate(src_all)
    dst = np.concatenate(dst_all)
    assert len(src) == edges.num_edges
    # Same multiset of edges as the input.
    got = np.lexsort((dst, src))
    want = np.lexsort((edges.dst, edges.src))
    assert np.array_equal(src[got], edges.src[want])
    assert np.array_equal(dst[got], edges.dst[want])


def test_blocks_sorted_by_source_then_destination(edges, tmp_path):
    # The per-block order must equal the global (src, dst) lexsort
    # restricted to the block — the invariant bit-identity rests on.
    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    for i in range(3):
        for j in range(3):
            block = grid.read_block(i, j)
            if len(block.src) < 2:
                continue
            order = np.lexsort((block.dst, block.src))
            assert np.array_equal(order, np.arange(len(block.src)))


def test_cache_hit_and_budget_accounting(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=3, budget=1 << 20)
    first = grid.read_block(0, 0)
    assert first.nbytes > 0
    again = grid.read_block(0, 0)
    assert again.nbytes == 0  # served from cache
    assert grid.stats.cache_hits == 1
    assert grid.budget.high_water_bytes <= 1 << 20


def test_budget_eviction_bounds_residency(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=4)
    biggest = max(block["bytes"] for block in grid.manifest["blocks"])
    budget = 2 * biggest
    grid = GridStore.open(tmp_path, budget=budget)
    for i in range(4):
        for j in range(4):
            grid.read_block(i, j)
    assert grid.budget.high_water_bytes <= budget
    assert grid.budget.evictions > 0


def test_empty_block_reads_empty(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=8)
    empties = [
        (i, j)
        for i in range(8)
        for j in range(8)
        if grid.block_edges(i, j) == 0
    ]
    assert empties  # an 8x8 grid of ~1.2k edges has holes
    block = grid.read_block(*empties[0])
    assert len(block.src) == 0 and block.nbytes == 0


def test_open_round_trips_manifest(edges, tmp_path):
    built = GridStore.build(edges, tmp_path, num_stripes=3)
    opened = GridStore.open(tmp_path)
    assert opened.manifest == built.manifest
    assert opened.num_stripes == 3
    assert opened.total_bytes() == built.total_bytes()


def test_open_rejects_unknown_version(edges, tmp_path):
    import json

    from repro.durable import write_framed
    from repro.layout.grid import _GRID_MAGIC

    preprocess_grid(edges, tmp_path, 2)
    manifest = GridStore.open(tmp_path).manifest
    manifest["version"] = 99
    write_framed(
        tmp_path / GRID_MANIFEST,
        _GRID_MAGIC,
        json.dumps(manifest).encode("utf-8"),
    )
    with pytest.raises(GridError):
        GridStore.open(tmp_path)


# ----------------------------------------------------------------------
# stored id width: uint16 stripe offsets where both stripes allow it


def _wide_only(monkeypatch):
    """Make every block fall back to absolute ``int32`` ids."""
    from repro.layout import grid as grid_module

    monkeypatch.setattr(grid_module, "_NARROW_SPAN", 0)


def _blocks(grid):
    return {
        (i, j): grid.read_block(i, j)
        for i in range(grid.num_stripes)
        for j in range(grid.num_stripes)
        if grid.block_edges(i, j)
    }


def _rewrite_manifest(directory, manifest):
    import json

    from repro.durable import write_framed
    from repro.layout.grid import _GRID_MAGIC

    write_framed(directory / GRID_MANIFEST, _GRID_MAGIC, json.dumps(manifest).encode("utf-8"))


def test_a_narrow_grid_serves_the_int32_grids_ids_at_half_the_bytes(edges, tmp_path, monkeypatch):
    narrow = GridStore.build(edges, tmp_path / "narrow", num_stripes=3)
    assert {b["width"] for b in narrow.manifest["blocks"]} == {2}
    _wide_only(monkeypatch)
    wide = GridStore.build(edges, tmp_path / "wide", num_stripes=3)
    assert {b["width"] for b in wide.manifest["blocks"]} == {4}
    assert narrow.manifest["version"] == 2 and wide.manifest["version"] == 1
    assert 2 * narrow.total_bytes() == wide.total_bytes()
    got, want = _blocks(narrow), _blocks(wide)
    assert got.keys() == want.keys()
    for key, block in got.items():
        assert block.src.dtype == block.dst.dtype == VID_DTYPE
        assert 2 * block.nbytes == want[key].nbytes
        assert np.array_equal(block.src, want[key].src)
        assert np.array_equal(block.dst, want[key].dst)
    for key, block in _blocks(narrow).items():  # cache hits widen the same ids
        assert block.nbytes == 0 and np.array_equal(block.dst, want[key].dst)


def test_a_stripe_wider_than_65536_vertices_stores_int32_ids(tmp_path):
    from repro.graph.edgelist import EdgeList

    few = EdgeList(70_000, np.array([0, 5, 69_999]), np.array([69_998, 65_536, 1]))
    grid = GridStore.build(few, tmp_path, num_stripes=1)
    assert [b["width"] for b in grid.manifest["blocks"]] == [4]
    block = grid.read_block(0, 0)
    assert grid.total_bytes() == block.nbytes == 2 * 3 * 4
    assert block.src.tolist() == [0, 5, 69_999] and block.dst.tolist() == [69_998, 65_536, 1]


def test_a_manifest_without_widths_reads_as_int32(edges, tmp_path, monkeypatch):
    _wide_only(monkeypatch)
    want = _blocks(GridStore.build(edges, tmp_path, num_stripes=3))
    monkeypatch.undo()
    manifest = GridStore.open(tmp_path).manifest
    for entry in manifest["blocks"]:
        del entry["width"]
    _rewrite_manifest(tmp_path, manifest)
    grid = GridStore.open(tmp_path)
    assert grid.verify() == []
    got = _blocks(grid)
    assert got.keys() == want.keys()
    for key, block in got.items():
        assert block.nbytes == want[key].nbytes == 8 * grid.block_edges(*key)
        assert np.array_equal(block.src, want[key].src)
        assert np.array_equal(block.dst, want[key].dst)


def test_a_torn_narrow_block_is_repaired_in_its_recorded_width(edges, tmp_path):
    import zlib

    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    want = {key: (b.src.copy(), b.dst.copy()) for key, b in _blocks(grid).items()}
    grid.release()
    i, j = _corrupt_one_block(tmp_path, grid.manifest)
    entry = grid.manifest["blocks"][0]
    block = grid.read_block(i, j)
    assert grid.stats.repairs == 1
    assert np.array_equal(block.src, want[i, j][0]) and np.array_equal(block.dst, want[i, j][1])
    payload = (tmp_path / entry["file"]).read_bytes()[_FRAME_BYTES:]
    assert len(payload) == entry["bytes"] == 2 * 2 * entry["edges"]
    assert zlib.crc32(payload) == entry["crc32"]
    assert GridStore.open(tmp_path).verify() == []


def test_a_budget_of_the_stored_bytes_pins_every_block(edges, tmp_path):
    limit = GridStore.build(edges, tmp_path, num_stripes=4).total_bytes()
    grid = GridStore.open(tmp_path, budget=limit)
    assert grid.budget.pinned == {(b["i"], b["j"]) for b in grid.manifest["blocks"]}
    first, _ = _scan(grid)
    assert len(first) == len(grid.manifest["blocks"])
    second, (reads, hits) = _scan(grid)
    assert second == set() and reads == 0 and hits == len(first)
    assert grid.budget.evictions == 0 and grid.budget.high_water_bytes == limit


def test_narrow_blocks_never_cost_an_oversubscribed_scan_reads(tmp_path, monkeypatch):
    # Every int32 block here but four is over the 6,000 B limit and streams
    # uncached; stored narrow, all fit, and pinning must still keep four.
    road = gen.road_grid(30, seed=2)
    narrow = GridStore.build(road, tmp_path / "narrow", num_stripes=3, budget=6000)
    _wide_only(monkeypatch)
    wide = GridStore.build(road, tmp_path / "wide", num_stripes=3, budget=6000)
    scans = {grid: [_scan(grid)[1] for _ in range(3)] for grid in (narrow, wide)}
    assert wide.stats.uncached_reads and not narrow.stats.uncached_reads
    assert sum(r for r, _ in scans[narrow]) <= sum(r for r, _ in scans[wide])
    assert narrow.stats.pinned_blocks >= wide.stats.pinned_blocks


def test_open_refuses_a_block_format_it_cannot_read(edges, tmp_path):
    GridStore.build(edges, tmp_path, num_stripes=3)
    good = GridStore.open(tmp_path).manifest
    block = good["blocks"][0]
    wide_stripe = {"boundaries": [0, 70_000, 70_001, 70_002], "num_vertices": 70_002}
    for manifest in (
        {**good, "blocks": [{**block, "width": 3}]},
        {**good, "blocks": [{**block, "width": 8}]},
        {**good, "blocks": [{**block, "bytes": block["bytes"] + 2}]},
        {**good, "blocks": [{k: v for k, v in block.items() if k != "width"}]},
        {**good, **wide_stripe, "blocks": [{**block, "i": 0, "j": 0}]},
        {**good, "blocks": [{**block, "j": 3}]},
    ):
        _rewrite_manifest(tmp_path, manifest)
        with pytest.raises(GridError, match="unsupported format"):
            GridStore.open(tmp_path)


# ----------------------------------------------------------------------
# verify / repair


def _corrupt_one_block(directory, manifest):
    entry = manifest["blocks"][0]
    path = directory / entry["file"]
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    return entry["i"], entry["j"]


def test_verify_reports_corruption_without_repair(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    assert grid.verify() == []
    i, j = _corrupt_one_block(tmp_path, grid.manifest)
    assert GridStore.open(tmp_path).verify() == [(i, j)]


def test_repair_on_read_from_in_memory_edges(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    i, j = _corrupt_one_block(tmp_path, grid.manifest)
    block = grid.read_block(i, j)  # heals from the retained edge list
    assert grid.stats.repairs == 1
    assert len(block.src) == grid.block_edges(i, j)
    assert GridStore.open(tmp_path).verify() == []  # rewrite persisted


def test_torn_block_without_source_is_terminal(edges, tmp_path):
    preprocess_grid(edges, tmp_path, 3)
    grid = GridStore.open(tmp_path)  # no edges, no source record
    i, j = _corrupt_one_block(tmp_path, grid.manifest)
    with pytest.raises(TornBlockError):
        grid.read_block(i, j)


def test_repair_from_recorded_file_source(edges, tmp_path):
    from repro.graph import io as graph_io

    graph_path = tmp_path / "edges.npz"
    graph_io.save_npz(graph_path, edges)
    grid_dir = tmp_path / "grid"
    preprocess_grid(
        edges, grid_dir, 3,
        source={"kind": "file", "path": str(graph_path)},
    )
    grid = GridStore.open(grid_dir)
    i, j = _corrupt_one_block(grid_dir, grid.manifest)
    block = grid.read_block(i, j)
    assert grid.stats.repairs == 1
    assert len(block.src) == grid.block_edges(i, j)


#: a block file's frame: the 8-byte magic, then (CRC32, payload length).
_FRAME_BYTES = 20


def _reframe(path, payload: bytes) -> None:
    from repro.durable import write_framed
    from repro.layout.grid import _BLOCK_MAGIC

    write_framed(path, _BLOCK_MAGIC, payload)


def _flip_header_crc(path) -> None:
    data = bytearray(path.read_bytes())
    data[8] ^= 0xFF  # the header's CRC32 follows the 8-byte magic
    path.write_bytes(bytes(data))


def test_a_validly_framed_payload_the_manifest_disagrees_with_is_repaired(edges, tmp_path):
    # The frame CRC matches this payload; only the manifest's CRC catches it.
    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    entry = max(grid.manifest["blocks"], key=lambda b: b["edges"])
    i, j = entry["i"], entry["j"]
    want = grid.read_block(i, j)
    want_src, want_dst = want.src.copy(), want.dst.copy()
    grid.release()
    good = (tmp_path / entry["file"]).read_bytes()[_FRAME_BYTES:]
    _reframe(tmp_path / entry["file"], good[::-1])
    assert grid.verify() == [(i, j)]
    block = grid.read_block(i, j)
    assert grid.stats.repairs == 1
    assert np.array_equal(block.src, want_src) and np.array_equal(block.dst, want_dst)
    assert grid.verify() == []


def test_a_header_crc_that_disagrees_with_the_manifest_is_detected(edges, tmp_path):
    from repro.durable import read_framed
    from repro.errors import CheckpointCorruptError
    from repro.layout.grid import _BLOCK_MAGIC

    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    entry = grid.manifest["blocks"][0]
    path = tmp_path / entry["file"]
    with pytest.raises(CheckpointCorruptError, match="header CRC"):
        read_framed(path, _BLOCK_MAGIC, entry["crc32"] ^ 1)
    _flip_header_crc(path)
    assert grid.verify() == [(entry["i"], entry["j"])]


def test_verify_flags_every_kind_of_damage(edges, tmp_path):
    # One block per check the read path makes: magic, length, frame CRC,
    # header CRC vs the manifest, and a valid frame around the wrong payload.
    grid = GridStore.build(edges, tmp_path, num_stripes=4)
    entries = sorted(grid.manifest["blocks"], key=lambda b: (b["i"], b["j"]))
    paths = [tmp_path / e["file"] for e in entries]
    paths[0].write_bytes(b"XXXXXXXX" + paths[0].read_bytes()[8:])
    paths[1].write_bytes(paths[1].read_bytes()[:-4])
    _corrupt_one_block(tmp_path, {"blocks": [entries[2]]})
    _flip_header_crc(paths[3])
    _reframe(paths[4], paths[4].read_bytes()[_FRAME_BYTES:][::-1])
    paths[5].unlink()
    damaged = [(e["i"], e["j"]) for e in entries[:6]]
    assert grid.verify() == damaged
    assert GridStore.open(tmp_path).verify() == damaged


def test_a_real_read_error_goes_through_the_retry_loop(edges, tmp_path, monkeypatch):
    import errno

    from repro.errors import GridIOError
    from repro.layout import grid as grid_module

    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    entry = grid.manifest["blocks"][0]
    i, j = entry["i"], entry["j"]
    real, failures = grid_module.read_framed, [1]

    def flaky(*args):
        if failures[0]:
            failures[0] -= 1
            raise OSError(errno.EIO, "Input/output error")
        return real(*args)

    monkeypatch.setattr(grid_module, "read_framed", flaky)
    block = grid.read_block(i, j)
    assert grid.stats.io_retries == 1
    assert len(block.src) == entry["edges"]
    grid.release()
    failures[0] = 10**9  # now it always fails
    with pytest.raises(GridIOError):
        grid.read_block(i, j)
    assert grid.stats.io_retries == 4


# ----------------------------------------------------------------------
# pinning: a cyclic scan larger than the budget keeps its pinned blocks


def _scan(grid):
    """Read every block once, in schedule order; returns the keys read
    from disk and the scan's (block_reads, cache_hits)."""
    reads, hits = grid.stats.block_reads, grid.stats.cache_hits
    from_disk = set()
    for i in range(grid.num_stripes):
        for j in range(grid.num_stripes):
            if grid.read_block(i, j).nbytes:
                from_disk.add((i, j))
    return from_disk, (grid.stats.block_reads - reads, grid.stats.cache_hits - hits)


def test_a_cyclic_scan_rereads_exactly_the_unpinned_blocks(edges, tmp_path):
    total = GridStore.build(edges, tmp_path, num_stripes=4).total_bytes()
    limit = total // 2  # the grid is 2x the budget
    grid = GridStore.open(tmp_path, budget=limit)
    sizes = {(b["i"], b["j"]): b["bytes"] for b in grid.manifest["blocks"]}
    assert max(sizes.values()) <= limit
    pinned = grid.budget.pinned
    unpinned = set(sizes) - pinned
    assert pinned and unpinned
    assert grid.stats.pinned_bytes == sum(sizes[k] for k in pinned)
    assert grid.stats.pinned_blocks == len(pinned)
    assert grid.stats.pinned_bytes + max(sizes[k] for k in unpinned) <= limit

    first, _ = _scan(grid)
    assert first == set(sizes)
    second, counts = _scan(grid)
    assert second == unpinned
    assert counts == (len(unpinned), len(pinned))
    assert _scan(grid) == (second, counts)  # counts repeat scan to scan
    assert grid.budget.high_water_bytes <= limit
    assert f"pinned {len(pinned)} " in grid.stats.summary()


def test_a_closed_engine_holds_no_block_and_rereads_bit_identically(edges, tmp_path):
    from repro.algorithms import registry
    from repro.core import Engine, EngineOptions
    from repro.layout.store import GraphStore

    limit = GridStore.build(edges, tmp_path, num_stripes=4).total_bytes() // 2
    engine = Engine(GraphStore.build(edges, num_partitions=4), EngineOptions())
    engine.attach_grid(GridStore.open(tmp_path, budget=limit))
    grid, spec = engine.grid, registry.ALGORITHMS["PR"]
    first = registry.result_arrays(spec.run(engine))
    assert grid.budget.resident_bytes > 0
    engine.close()
    assert grid.budget.resident_bytes == 0 and not grid._cache
    reads = grid.stats.block_reads
    again = registry.result_arrays(spec.run(engine))
    assert grid.stats.block_reads - reads >= len(grid.manifest["blocks"])
    assert first.keys() == again.keys()
    for name, value in first.items():
        np.testing.assert_array_equal(again[name], value)
    engine.close()


# ----------------------------------------------------------------------
# write faults during preprocessing


def test_disk_full_retries_once_then_succeeds(edges, tmp_path):
    plan = FaultPlan.from_spec("disk_full@0")
    events = []
    preprocess_grid(edges, tmp_path, 3, fault_plan=plan, events=events)
    assert any("disk full" in e for e in events)
    assert GridStore.open(tmp_path).verify() == []


def test_write_retries_are_counted_not_read_back_from_the_log(edges, tmp_path):
    # Two retried blocks (write indices 0 and 2: the retry of the first
    # block consumed index 1), counted whatever the event lines say.
    plan = FaultPlan.from_spec("disk_full@0,disk_full@2")
    _, retries = preprocess_grid(edges, tmp_path / "a", 3, fault_plan=plan)
    assert retries == 2
    plan.reset()
    grid = GridStore.build(edges, tmp_path / "b", num_stripes=3, fault_plan=plan)
    assert grid.stats.write_retries == 2
    assert grid.verify() == []


def test_disk_full_twice_is_terminal(edges, tmp_path):
    plan = FaultPlan.from_spec("disk_full@0,disk_full@1")
    with pytest.raises(DiskFullError):
        preprocess_grid(edges, tmp_path, 3, fault_plan=plan)
    # No manifest was committed, so the directory is not a grid.
    with pytest.raises(CheckpointError):
        GridStore.open(tmp_path)


def test_torn_write_heals_on_read(edges, tmp_path):
    plan = FaultPlan.from_spec("torn_block@0")
    grid = GridStore.build(edges, tmp_path, num_stripes=3, fault_plan=plan)
    corrupt = grid.verify()
    assert len(corrupt) == 1
    block = grid.read_block(*corrupt[0])
    assert grid.stats.repairs == 1
    assert len(block.src) == grid.block_edges(*corrupt[0])


# ----------------------------------------------------------------------
# stripe modes


def _skewed_edges():
    # A hub-and-chain graph: vertex 0 touches every edge, so equal-vertex
    # stripes concentrate all the mass in the stripe containing the hub.
    n = 64
    hub_dst = np.arange(1, n, dtype=np.int64)
    hub_src = np.zeros(n - 1, dtype=np.int64)
    chain_src = np.arange(1, n - 1, dtype=np.int64)
    chain_dst = np.arange(2, n, dtype=np.int64)
    from repro.graph.edgelist import EdgeList

    return EdgeList(
        n,
        np.concatenate([hub_src, chain_src]),
        np.concatenate([hub_dst, chain_dst]),
    )


def test_degree_stripes_balance_edge_mass():
    edges = _skewed_edges()
    vertex = grid_stripe_boundaries(edges, 4, "vertex")
    degree = grid_stripe_boundaries(edges, 4, "degree")

    def stripe_mass(part):
        weights = np.bincount(edges.src, minlength=edges.num_vertices) + np.bincount(
            edges.dst, minlength=edges.num_vertices
        )
        return [
            int(weights[lo:hi].sum())
            for lo, hi in (part.vertex_range(i) for i in range(4))
        ]

    assert max(stripe_mass(degree)) < max(stripe_mass(vertex))


def test_degree_mode_round_trips_and_records_manifest(tmp_path):
    edges = _skewed_edges()
    grid = GridStore.build(
        edges, tmp_path, num_stripes=4, stripe_mode="degree"
    )
    assert grid.stripe_mode == "degree"
    assert GridStore.open(tmp_path).stripe_mode == "degree"
    total = 0
    src_all, dst_all = [], []
    for i in range(4):
        for j in range(4):
            block = grid.read_block(i, j)
            total += len(block.src)
            src_all.append(block.src)
            dst_all.append(block.dst)
    assert total == edges.num_edges
    src, dst = np.concatenate(src_all), np.concatenate(dst_all)
    got = np.lexsort((dst, src))
    want = np.lexsort((edges.dst, edges.src))
    assert np.array_equal(src[got], edges.src[want])
    assert np.array_equal(dst[got], edges.dst[want])


def test_degree_mode_shrinks_the_biggest_block(tmp_path):
    edges = _skewed_edges()
    vertex = GridStore.build(
        edges, tmp_path / "v", num_stripes=4, stripe_mode="vertex"
    )
    degree = GridStore.build(
        edges, tmp_path / "d", num_stripes=4, stripe_mode="degree"
    )
    biggest = lambda g: max(e["edges"] for e in g.manifest["blocks"])  # noqa: E731
    assert biggest(degree) < biggest(vertex)


def test_unknown_stripe_mode_rejected():
    with pytest.raises(ValidationError):
        grid_stripe_boundaries(_skewed_edges(), 4, "rainbow")
