"""Backend option table, the thread pool's lifecycle and EngineOptions integration."""

from __future__ import annotations

import gc
import threading

import pytest

from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.core.backend import BACKEND_SPEC, ProcessBackend, ThreadBackend, backend_options
from repro.errors import GraphFormatError, ValidationError
from repro.layout.store import GraphStore
from tests.lattice import GRAPHS


# ----------------------------------------------------------------------
# the backend option table (the grammar itself: tests/test_spec.py)
# ----------------------------------------------------------------------
def test_serial_accepts_only_prefetch():
    with pytest.raises(ValidationError, match="does not accept option"):
        backend_options("serial:workers=2")
    assert backend_options("serial:prefetch=2") == ("serial", {"prefetch": 2})


def test_validation_error_is_both_graph_error_and_value_error():
    # EngineOptions.__post_init__ promises ValueError on bad input; the
    # spec grammar keeps that promise via the ValidationError subclass.
    with pytest.raises(GraphFormatError):
        backend_options("nope")
    with pytest.raises(ValueError):
        backend_options("nope")


def test_serial_typed_options_are_prefetch_only():
    assert backend_options("serial") == ("serial", {"prefetch": 0})
    assert backend_options("serial:prefetch=3") == ("serial", {"prefetch": 3})


def test_process_defaults_are_resolved():
    kind, options = backend_options("process")
    assert kind == "process"
    assert options["workers"] >= 1
    assert options["strict"] is True
    assert options == backend_options("threads")[1]


@pytest.mark.parametrize(
    "options", ["", ":workers=3", ":workers=2:strict=0", ":strict=1"]
)
def test_threads_and_process_parse_to_equal_options(options):
    """``process`` is the old name the benchmark harness still uses."""
    assert backend_options(f"process{options}")[1] == backend_options(f"threads{options}")[1]


def test_workers_must_be_a_positive_integer():
    assert backend_options("threads:workers=3")[1]["workers"] == 3
    with pytest.raises(ValidationError, match="workers"):
        backend_options("threads:workers=zero")
    with pytest.raises(ValidationError, match="workers"):
        backend_options("threads:workers=0")


def test_strict_is_binary():
    assert backend_options("threads:strict=0")[1]["strict"] is False
    assert backend_options("threads:strict=1")[1]["strict"] is True
    with pytest.raises(ValidationError, match="strict"):
        backend_options("threads:strict=yes")


def test_start_method_is_checked():
    """The deleted ``start=`` key (a process start method) is refused by name."""
    for kind in ("threads", "process"):
        with pytest.raises(ValidationError, match="does not accept option 'start'"):
            backend_options(f"{kind}:start=spawn")


def test_threads_refuse_the_deleted_prefetch_key():
    """Only ``serial`` parses ``prefetch=`` (a no-op shim for the benchmark
    harness); the thread kinds refuse it by name."""
    for kind in ("threads", "process"):
        with pytest.raises(ValidationError, match="does not accept option 'prefetch'"):
            backend_options(f"{kind}:workers=2:prefetch=2")


# ----------------------------------------------------------------------
# ThreadBackend
# ----------------------------------------------------------------------
def _new_threads(before: set) -> set:
    """Live threads that were not running at ``before`` (the residue rule:
    a closed engine leaves ``threading.active_count()`` where it was)."""
    return set(threading.enumerate()) - before


def test_process_backend_is_lazily_started():
    assert ProcessBackend is ThreadBackend  # the old name the benchmark harness wraps
    threads = set(threading.enumerate())
    backend = ThreadBackend(workers=2)
    try:
        assert backend.workers == 2
        # lazily started: building the backend must not start a thread.
        assert not _new_threads(threads)
    finally:
        backend.close()


def test_spec_kinds_are_serial_threads_and_the_process_alias():
    assert set(BACKEND_SPEC) == {"serial", "threads", "process"}
    assert BACKEND_SPEC["process"] is BACKEND_SPEC["threads"]
    assert len({key for options in BACKEND_SPEC.values() for key in options}) == 3


@pytest.fixture(scope="module")
def store():
    return GraphStore.build(GRAPHS["tiny_rmat"](), num_partitions=8)


def test_engine_close_joins_the_pool(store):
    threads = set(threading.enumerate())
    engine = Engine(store, EngineOptions(num_threads=4, backend="threads:workers=2"))
    pagerank(engine, iterations=2)
    assert engine.backend_stats.workers_spawned == 2
    assert _new_threads(threads)
    engine.close()
    assert not _new_threads(threads)
    pagerank(engine, iterations=1)  # used again: a fresh pool, closed again
    engine.close()
    assert not _new_threads(threads)


def test_a_forgotten_engines_finalizer_joins_the_pool(store):
    threads = set(threading.enumerate())
    engine = Engine(store, EngineOptions(num_threads=4, backend="threads:workers=2"))
    pagerank(engine, iterations=2)
    assert _new_threads(threads)
    del engine
    gc.collect()
    assert not _new_threads(threads)


# ----------------------------------------------------------------------
# EngineOptions integration
# ----------------------------------------------------------------------
def test_engine_options_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert EngineOptions().backend == "serial"


def test_engine_options_honours_repro_backend_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threads:workers=2")
    assert EngineOptions().backend == "threads:workers=2"
    # explicit argument still wins over the environment
    assert EngineOptions(backend="serial").backend == "serial"


def test_engine_options_validates_the_spec():
    with pytest.raises(ValidationError):
        EngineOptions(backend="warp")
    with pytest.raises(ValidationError):
        EngineOptions(backend="threads:workers=none")
