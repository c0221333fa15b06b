"""Unit tests for the on-disk edge grid: preprocessing, the manifest
commit point, verified/budgeted reads and repair-on-read."""

import numpy as np
import pytest

from repro.core.budget import MemoryBudget
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
    biggest = None
    grid = GridStore.build(edges, tmp_path, num_stripes=4)
    biggest = max(
        grid.block_bytes(i, j) for i in range(4) for j in range(4)
    )
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


# ----------------------------------------------------------------------
# double-buffered prefetch


def _all_keys(grid):
    return [(int(e["i"]), int(e["j"])) for e in grid.manifest["blocks"]]


def test_prefetch_serves_scheduled_blocks_identically(edges, tmp_path):
    sync = GridStore.build(edges, tmp_path / "sync", num_stripes=3)
    grid = GridStore.build(edges, tmp_path / "pf", num_stripes=3)
    grid.enable_prefetch(2)
    assert grid.prefetch_enabled
    keys = _all_keys(grid)
    grid.schedule_reads(keys)
    try:
        for i, j in keys:
            want = sync.read_block(i, j)
            got = grid.read_block(i, j)
            np.testing.assert_array_equal(want.src, got.src)
            np.testing.assert_array_equal(want.dst, got.dst)
        assert grid.stats.prefetched > 0
        assert grid.stats.block_reads == len(keys)
    finally:
        grid.close()


def test_prefetch_unscheduled_key_falls_back_to_sync_read(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    grid.enable_prefetch(2)
    keys = _all_keys(grid)
    try:
        # nothing scheduled: read_block must still work, synchronously
        block = grid.read_block(*keys[0])
        assert len(block.src) == grid.block_edges(*keys[0])
        assert grid.stats.prefetched == 0
    finally:
        grid.close()


def test_prefetch_reservations_respect_the_quota(edges, tmp_path):
    biggest = None
    probe = GridStore.build(edges, tmp_path / "probe", num_stripes=3)
    biggest = max(e["bytes"] for e in probe.manifest["blocks"])
    budget = MemoryBudget(8 * biggest, prefetch_quota=biggest)
    grid = GridStore.open(tmp_path / "probe", budget=budget)
    grid.enable_prefetch(4)
    keys = _all_keys(grid)
    grid.schedule_reads(keys)
    try:
        for key in keys:
            grid.read_block(*key)
        assert budget.prefetch_high_water_bytes <= budget.effective_prefetch_quota()
        assert budget.prefetch_inflight_bytes == 0  # all consumed
        assert budget.high_water_bytes <= budget.limit_bytes
    finally:
        grid.close()


def test_cancel_prefetch_releases_reservations(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=3, budget=1 << 20)
    grid.enable_prefetch(2)
    grid.schedule_reads(_all_keys(grid))
    grid.cancel_prefetch()
    try:
        assert grid.budget.prefetch_inflight_bytes == 0
        # a fresh schedule after the cancel still serves correctly
        keys = _all_keys(grid)
        grid.schedule_reads(keys[:2])
        block = grid.read_block(*keys[0])
        assert len(block.src) == grid.block_edges(*keys[0])
    finally:
        grid.close()


def test_rescheduling_cancels_stale_prefetches(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    grid.enable_prefetch(2)
    keys = _all_keys(grid)
    try:
        grid.schedule_reads(keys)  # plan A
        grid.schedule_reads(list(reversed(keys)))  # plan B replaces it
        for key in reversed(keys):
            block = grid.read_block(*key)
            assert len(block.src) == grid.block_edges(*key)
        assert grid.budget.prefetch_inflight_bytes == 0
    finally:
        grid.close()


def test_close_is_idempotent_and_disables_prefetch(edges, tmp_path):
    grid = GridStore.build(edges, tmp_path, num_stripes=3)
    grid.enable_prefetch(1)
    grid.schedule_reads(_all_keys(grid))
    grid.close()
    grid.close()
    assert not grid.prefetch_enabled


def test_prefetched_io_error_retries_like_sync(edges, tmp_path):
    # The fault plan injects through the prefetcher's read path exactly
    # as it would the synchronous one: same retry, same stat.
    GridStore.build(edges, tmp_path, num_stripes=3)
    plan = FaultPlan.from_spec("io_error@1")
    grid = GridStore.open(tmp_path, fault_plan=plan)
    grid.enable_prefetch(2)
    keys = _all_keys(grid)
    grid.schedule_reads(keys)
    ref = GridStore.open(tmp_path)
    try:
        for key in keys:
            want = ref.read_block(*key)
            got = grid.read_block(*key)
            np.testing.assert_array_equal(want.src, got.src)
            np.testing.assert_array_equal(want.dst, got.dst)
        assert grid.stats.io_retries == 1
        assert grid.stats.prefetched > 0
    finally:
        grid.close()
