"""Smoke test of the end-to-end benchmark harness.

Outside the tier-1 ``testpaths``; run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e

Drives the same functions as ``run.py`` in-process on small stand-in
graphs (rmat-10, road-30, road-20), so it checks the harness, not the
numbers.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

CONTRACT = run.contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(name: str, trace: bool, **kwargs) -> dict:
    return run.run_workload(name, 11, 0.0, trace, sizes=SMOKE, in_process=True, **kwargs)


def test_contract_file_is_within_its_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in CONTRACT["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_contract_file_matches_the_code():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric_and_passes_its_checks(name):
    record = smoke(name, trace=False)
    assert record["failures"] == [] and record["residue"] == []
    assert record["attempted"] >= 1
    for metric in CONTRACT["end_to_end"]:
        assert record["end_to_end"][metric["name"]] > 0

    traced = smoke(name, trace=True)
    assert traced["failures"] == [] and traced["residue"] == []
    assert list(traced["per_layer"]) == [m["name"] for m in CONTRACT["per_layer"]]
    assert all(math.isfinite(value) for value in traced["per_layer"].values())
    layer = traced["per_layer"]
    assert layer["engine.edge_map_calls"] > 0 and layer["trace.attributed_frac"] > 0.5
    # A layer the workload bypasses must read exactly nothing.
    assert (layer["grid.block_reads"] > 0) == WORKLOADS[name].spill
    assert (layer["journal.commits"] > 0) == WORKLOADS[name].spill
    assert (layer["backend.batches"] > 0) == WORKLOADS[name].backend.startswith("process")
    assert (layer["locality.pr_p1_over_p384"] > 0) == (not WORKLOADS[name].partitioned)
    assert (run.OUT_DIR / f"trace_{name}.json").exists()


def test_corrupted_result_is_caught():
    record = smoke("mixed_cc_road", trace=False, corrupt=True)
    assert record["failed"] >= 1
    assert "independent expectation" in record["failures"][0]


def test_compare_verdicts(tmp_path, capsys):
    record = smoke("sparse_road", trace=False)

    def document(path: Path, run_s: float, samples: list[float]) -> str:
        row = {
            "end_to_end": dict(record["end_to_end"], run_s=run_s),
            "run_s_samples": samples,
        }
        path.write_text(json.dumps({"workloads": {"sparse_road": row}}))
        return str(path)

    def verdicts() -> list[str]:
        return [line.split()[-1] for line in capsys.readouterr().out.splitlines()]

    base = document(tmp_path / "a.json", 1.0, [0.99, 1.0, 1.01])
    assert run.compare(base, base) == 0
    assert set(verdicts()) == {"ok"}

    noisy = document(tmp_path / "noisy.json", 1.0, [0.7, 1.0, 1.3])
    assert run.compare(base, noisy) == 0
    assert "unresolved" in verdicts()

    slower = document(tmp_path / "slower.json", 2.0, [1.99, 2.0, 2.01])
    assert run.compare(base, slower) == 1
    assert "worse" in verdicts()
