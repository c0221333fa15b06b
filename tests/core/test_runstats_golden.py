"""``RunStats`` pinned field for field across engine refactors.

``runstats_golden.json`` holds the integer fields of every
:class:`~repro.core.stats.EdgeMapStats` the 8 registered algorithms
record on one small seeded graph, under each traversal configuration the
engine has.  Integer counts only, so the file does not depend on the
numpy version; result bit-identity is the oracle suites' job.

Re-record (only when a change to the counters is intended) with
``PYTHONPATH=src python tests/core/test_runstats_golden.py``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.algorithms import registry
from repro.analysis.sanitizer import default_graph
from repro.core import Engine, EngineOptions
from repro.layout.grid import GridStore
from repro.layout.store import GraphStore

GOLDEN = Path(__file__).with_name("runstats_golden.json")

#: configuration name -> EngineOptions overrides ("grid" attaches a 4x4 grid).
CONFIGS = {
    "auto": {},
    "forced_pcsr": {"forced_layout": "pcsr"},
    "forced_csc": {"forced_layout": "csc"},
    "forced_coo": {"forced_layout": "coo"},
    "sparse_pcsr": {"sparse_layout": "pcsr"},
    "grid": {},
    "reverse": {"partition_order": "reverse"},
}


def _as_list(array):
    return None if array is None else [int(x) for x in array]


def _stats_rows(stats) -> list[dict]:
    return [
        {
            "layout": s.layout,
            "direction": s.direction,
            "density": s.density.name,
            "frontier_size": int(s.frontier_size),
            "active_edges": int(s.active_edges),
            "examined_edges": int(s.examined_edges),
            "scanned_vertices": int(s.scanned_vertices),
            "updated_vertices": int(s.updated_vertices),
            "uses_atomics": bool(s.uses_atomics),
            "num_partitions": int(s.num_partitions),
            "partition_examined": _as_list(s.partition_examined),
            "partition_touched_vertices": _as_list(s.partition_touched_vertices),
            "io_bytes": int(s.io_bytes),
            "io_blocks": int(s.io_blocks),
        }
        for s in stats.edge_maps
    ]


def collect(config: str, code: str, scratch: Path) -> list[dict]:
    edges = default_graph()
    store = GraphStore.build(edges, num_partitions=8)
    options = EngineOptions(num_threads=4, backend="serial", **CONFIGS[config])
    grid = (
        GridStore.build(edges, scratch / f"grid-{code}", num_stripes=4)
        if config == "grid"
        else None
    )
    with Engine(store, options, grid=grid) as engine:
        result = registry.get(code).run(engine)
    if code == "BC":  # two engines (the backward pass runs on the transpose)
        return _stats_rows(result.forward_stats) + _stats_rows(result.backward_stats)
    return _stats_rows(result.stats)


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("code", sorted(registry.names()))
def test_edge_map_stats_match_the_recorded_run(config, code, tmp_path):
    assert collect(config, code, tmp_path) == _golden()[config][code]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {
            config: {
                code: collect(config, code, Path(tmp) / config)
                for code in sorted(registry.names())
            }
            for config in sorted(CONFIGS)
        }
    GOLDEN.write_text(json.dumps(recorded, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} B)")
