"""CLI (`python -m repro`) tests."""

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.graph.edgelist import EdgeList
from repro.graph.io import save_npz, save_text


def test_run_dataset(capsys):
    rc = main(
        ["run", "BFS", "--dataset", "livejournal", "--scale", "0.12",
         "--partitions", "16", "--threads", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "BFS on livejournal@0.12" in out
    assert "simulated time" in out


def test_run_graph_file_npz(tmp_path, small_rmat, capsys):
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    rc = main(["run", "PR", "--graph", str(path), "--partitions", "8"])
    assert rc == 0
    assert "PR on" in capsys.readouterr().out


def test_run_graph_file_text(tmp_path, capsys):
    g = EdgeList.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "g.txt"
    save_text(path, g)
    rc = main(["run", "CC", "--graph", str(path), "--partitions", "2"])
    assert rc == 0


def test_experiment_table2(capsys):
    rc = main(["experiment", "table2"])
    assert rc == 0
    assert "PRDelta" in capsys.readouterr().out


def test_experiment_fig3_small(capsys):
    rc = main(["experiment", "fig3", "--scale", "0.12"])
    assert rc == 0
    assert "replication factor" in capsys.readouterr().out


def test_info(capsys):
    rc = main(["info"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table II" in out


def test_all_experiments_registered():
    for name in ("table1", "table2", "fig2", "fig3", "fig4", "fig5",
                 "fig6", "fig7", "fig8", "fig9", "fig10",
                 "ablation-thresholds", "ablation-balance"):
        assert name in EXPERIMENTS


def test_bad_algorithm_rejected():
    with pytest.raises(SystemExit):
        main(["run", "DIJKSTRA"])


# ----------------------------------------------------------------------
# the `grid` subcommand and the spill flags of `run`
# ----------------------------------------------------------------------
def test_grid_preprocess_verify_and_run(tmp_path, small_rmat, capsys):
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    grid_dir = tmp_path / "grid"
    assert main(["grid", "preprocess", str(grid_dir),
                 "--graph", str(path), "--stripes", "3"]) == 0
    out = capsys.readouterr().out
    assert "3x3 grid" in out

    assert main(["grid", "info", str(grid_dir)]) == 0
    assert "GridStore(3x3" in capsys.readouterr().out

    assert main(["grid", "verify", str(grid_dir)]) == 0
    assert "0 corrupt" in capsys.readouterr().out

    rc = main(["run", "BFS", "--graph", str(path), "--partitions", "8",
               "--grid", str(grid_dir), "--memory-budget", "8K"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "grid: 3x3 blocks" in out
    assert "resident high-water" in out


def test_grid_verify_flags_corruption(tmp_path, small_rmat, capsys):
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    grid_dir = tmp_path / "grid"
    assert main(["grid", "preprocess", str(grid_dir),
                 "--graph", str(path), "--stripes", "2"]) == 0
    block = next(grid_dir.glob("block-*.grb"))
    data = bytearray(block.read_bytes())
    data[-1] ^= 0xFF
    block.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["grid", "verify", str(grid_dir)]) == 1
    assert "CORRUPT" in capsys.readouterr().out


def test_run_memory_budget_spills(tmp_path, small_rmat, capsys):
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    rc = main(["run", "PR", "--graph", str(path), "--partitions", "8",
               "--memory-budget", "8K"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "out-of-core grid" in out
    assert "resident high-water" in out


@pytest.mark.parametrize("argv", [
    ["run", "PR", "--threads", "0"],
    ["run", "PR", "--checkpoint-dir", "{ck}", "--checkpoint-every", "0"],
    ["run", "PR", "--checkpoint-dir", "{ck}", "--checkpoint-keep", "0"],
    ["run", "PR", "--max-retries", "-1"],
    ["run", "PR", "--watchdog", "-1"],
    ["run", "PR", "--grid-stripes", "0", "--memory-budget", "8K"],
    ["run", "PR", "--scale", "-1"],
    ["memsim", "--line-bytes", "0"],
], ids=lambda argv: " ".join(argv[1:3] if argv[0] == "run" else argv[:2]))
def test_a_rejected_option_value_is_an_error_line_not_a_traceback(tmp_path, argv, capsys):
    argv = [arg.format(ck=tmp_path / "ck") for arg in argv]
    if "--scale" not in argv:
        argv += ["--scale", "0.02"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_memory_budget_is_a_typed_cli_error(tmp_path, small_rmat, capsys):
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    assert main(["run", "PR", "--graph", str(path),
                 "--memory-budget", "lots"]) == 1
    assert "bad memory budget" in capsys.readouterr().err


# ----------------------------------------------------------------------
# checkpoint stores, watchdog and the `checkpoints` maintenance command
# ----------------------------------------------------------------------
def _run_with_checkpoints(tmp_path, small_rmat, *extra):
    path = tmp_path / "g.npz"
    if not path.exists():
        save_npz(path, small_rmat)
    ckpt = tmp_path / "ckpts"
    args = ["run", "PR", "--graph", str(path), "--partitions", "8",
            "--checkpoint-dir", str(ckpt), *extra]
    assert main(args) == 0
    return ckpt


@pytest.mark.parametrize("store", ["local", "sharded", "replicated"])
def test_run_with_each_store_backend(tmp_path, small_rmat, store, capsys):
    ckpt = _run_with_checkpoints(tmp_path, small_rmat, "--store", store)
    assert ckpt.exists()
    rc = main(["checkpoints", "ls", "--checkpoint-dir", str(ckpt),
               "--store", store])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PR" in out


def test_run_with_watchdog_and_fault_plan(tmp_path, small_rmat, capsys):
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    rc = main(["run", "PR", "--graph", str(path), "--partitions", "8",
               "--watchdog", "--fault-plan", "stall@1:2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "watchdog tripped on partition 2" in out


@pytest.mark.parametrize("faults", ["partition@3:0", "worker_crash@3:0"])
def test_a_fault_that_never_fires_is_named_at_the_end(tmp_path, capsys, faults):
    """BFS on a road lattice runs sparse rounds only, which run no partition
    task: a partition-scoped fault addressed to one never fires, and the
    run's last line says so.  A whole-phase fault fires and is not named."""
    from repro.graph.generators import road_grid

    path = tmp_path / "g.npz"
    save_npz(path, road_grid(30))
    for plan, named in ((f"{faults},oom@2", [faults]), ("oom@2", [])):
        assert main(["run", "BFS", "--graph", str(path), "--partitions", "8",
                     "--fault-plan", plan]) == 0
        lines = capsys.readouterr().out.splitlines()
        notes = [line for line in lines if line.startswith("note: fault")]
        assert notes == [f"note: fault event(s) never fired: {', '.join(named)}"][: len(named)]
        assert not named or lines[-1] == notes[0]
        assert "injected OOM at edge-map 2" in "\n".join(lines)


def test_checkpoint_keep_retention(tmp_path, small_rmat, capsys):
    ckpt = _run_with_checkpoints(
        tmp_path, small_rmat, "--store", "sharded", "--checkpoint-keep", "2"
    )
    capsys.readouterr()
    assert main(["checkpoints", "ls", "--checkpoint-dir", str(ckpt),
                 "--store", "sharded"]) == 0
    # ten PR iterations checkpointed, but only the newest two survive
    assert "[9, 10]" in capsys.readouterr().out


def test_checkpoints_verify_flags_corruption(tmp_path, small_rmat, capsys):
    from repro.resilience import CheckpointManager, make_store

    ckpt = _run_with_checkpoints(tmp_path, small_rmat, "--store", "sharded")
    assert main(["checkpoints", "verify", "--checkpoint-dir", str(ckpt),
                 "--store", "sharded"]) == 0
    mgr = CheckpointManager(store=make_store("sharded", ckpt))
    name = mgr.names()[0]
    mgr.store.corrupt(name, mgr.steps(name)[0])
    assert main(["checkpoints", "verify", "--checkpoint-dir", str(ckpt),
                 "--store", "sharded"]) == 1
    assert "CORRUPT" in capsys.readouterr().out


def test_checkpoints_prune(tmp_path, small_rmat, capsys):
    ckpt = _run_with_checkpoints(tmp_path, small_rmat)
    assert main(["checkpoints", "prune", "--checkpoint-dir", str(ckpt),
                 "--keep", "1"]) == 0
    capsys.readouterr()
    assert main(["checkpoints", "ls", "--checkpoint-dir", str(ckpt)]) == 0
    assert "[10]" in capsys.readouterr().out


def test_resume_flag_requires_checkpoint_dir(tmp_path, small_rmat, capsys):
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    assert main(["run", "PR", "--graph", str(path), "--resume"]) != 0
    assert "--resume requires --checkpoint-dir" in capsys.readouterr().err


# ----------------------------------------------------------------------
# store specs, and the retired remote store's names
# ----------------------------------------------------------------------
def test_bad_store_spec_is_a_typed_cli_error(tmp_path, small_rmat, capsys):
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    assert main(["run", "PR", "--graph", str(path),
                 "--checkpoint-dir", str(tmp_path / "c"),
                 "--store", "replicated:bogus=1"]) == 1
    assert "does not accept option" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--store", "remote"], "unknown store kind 'remote'"),
        (["--fault-plan", "net_timeout@0"], "unknown fault kind 'net_timeout'"),
    ],
    ids=["store-remote", "fault-net_timeout"],
)
def test_the_remote_store_and_network_faults_are_refused(tmp_path, small_rmat, capsys,
                                                          flags, message):
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    assert main(["run", "PR", "--graph", str(path), "--partitions", "8",
                 "--checkpoint-dir", str(tmp_path / "c"), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert "|V|=" not in captured.out  # refused before the graph was loaded


def test_sync_on_a_local_store_is_rejected(tmp_path, small_rmat, capsys):
    """No store has a spill journal to drain: argparse refuses ``sync``."""
    ckpt = _run_with_checkpoints(tmp_path, small_rmat)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["checkpoints", "sync", "--checkpoint-dir", str(ckpt)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'sync'" in err and "Traceback" not in err


# ----------------------------------------------------------------------
# lint / certify: the 0-1-2 exit-code contract and machine formats
# ----------------------------------------------------------------------
CORPUS = "tests/analysis/corpus"


def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint", "src/repro"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_findings_exit_one(capsys):
    assert main(["lint", f"{CORPUS}/bad_effects.py"]) == 1
    out = capsys.readouterr().out
    for code in ("GL006", "GL007", "GL008", "GL009", "GL010"):
        assert code in out


def test_lint_output_is_sorted_by_location(capsys):
    assert main(["lint", CORPUS]) == 1
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("tests/")]
    keys = [(l.split(":")[0], int(l.split(":")[1])) for l in lines]
    assert keys == sorted(keys)


def test_lint_json_round_trip(capsys):
    import json

    assert main(["lint", "--format", "json", f"{CORPUS}/bad_effects.py"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 5
    assert [f["code"] for f in payload["findings"]] == [
        "GL006", "GL007", "GL008", "GL009", "GL010"
    ]
    assert all(
        {"path", "line", "col", "code", "message"} <= set(f)
        for f in payload["findings"]
    )


def test_lint_show_suppressed_lists_silenced_findings(capsys):
    assert main(["lint", "--show-suppressed", f"{CORPUS}/suppressed.py"]) == 0
    assert "[suppressed]" in capsys.readouterr().out


def test_lint_baseline_silences_corpus(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["lint", "--write-baseline", str(baseline), CORPUS]) == 0
    capsys.readouterr()
    assert main(["lint", "--baseline", str(baseline), CORPUS]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_missing_baseline_is_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["lint", "--baseline", str(missing), CORPUS]) == 2
    assert "error:" in capsys.readouterr().err


def test_lint_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--format", "yaml"])
    assert exc.value.code == 2


def test_certify_all_registered_algorithms_exit_zero(capsys):
    assert main(["certify"]) == 0
    out = capsys.readouterr().out
    assert "8/8 algorithm(s) partition-pure" in out
    assert "signed" in out


def test_certify_json_round_trip(capsys):
    import json

    from repro.algorithms import registry

    assert main(["certify", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["certificates"]) == sorted(registry.names())
    assert payload["uncertified"] == []
    pr = payload["certificates"]["PR"]
    assert pr["level"] == "partition-pure"
    assert pr["signature"]


def test_certify_unknown_algorithm_is_exit_two(capsys):
    assert main(["certify", "DIJKSTRA"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


# ----------------------------------------------------------------------
# run: a failing run releases what it started
# ----------------------------------------------------------------------
def test_failing_supervised_process_run_leaves_no_live_child(
    tmp_path, small_rmat, capsys, monkeypatch
):
    import threading

    from repro.core.engine import Engine

    closed = []
    close = Engine.close

    def spy(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(Engine, "close", spy)
    path = tmp_path / "g.npz"
    save_npz(path, small_rmat)
    threads = set(threading.enumerate())
    rc = main(["run", "PR", "--graph", str(path), "--partitions", "8",
               "--backend", "threads:workers=2", "--max-retries", "0",
               "--fault-plan", "worker_crash@2:3"])
    assert rc == 1
    assert "failed after 1 attempt(s)" in capsys.readouterr().err
    # the pool was started (two concurrent phases ran) and then closed by
    # the run itself, not left to the engine's finalizer
    assert len(closed) == 1
    assert closed[0].backend_stats.workers_spawned == 2
    assert set(threading.enumerate()) <= threads  # the pool's threads are joined


# ----------------------------------------------------------------------
# memsim
# ----------------------------------------------------------------------
def test_memsim_sweeps_a_tiny_trace(capsys):
    rc = main(["memsim", "--dataset", "twitter", "--scale", "0.02", "--partitions", "4",
               "--max-accesses", "2000", "--sets", "4,8", "--assoc", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "twitter@0.02, 4 partitions: 2000 accesses (64 B lines)" in out
    rows = [line.split() for line in out.splitlines() if line.split()[:2] in (["4", "2"], ["8", "2"])]
    assert [row[2] for row in rows] == ["512", "1024"]  # sets x ways x line bytes
    assert "reuse distances: max" in out
    assert "sweep: 2 configs" in out


def test_memsim_rejects_a_malformed_sweep(capsys):
    assert main(["memsim", "--scale", "0.02", "--sets", "a,b"]) == 1
    assert "--sets must be comma-separated integers" in capsys.readouterr().err
    assert main(["memsim", "--scale", "0.02", "--assoc", ","]) == 1
    assert "--assoc must name at least one value" in capsys.readouterr().err
