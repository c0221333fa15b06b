"""Backend option table, the process backend's laziness and EngineOptions integration."""

from __future__ import annotations

import pytest

from repro.core import EngineOptions
from repro.core.backend import BACKEND_SPEC, ProcessBackend, backend_options
from repro.errors import GraphFormatError, ValidationError


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
    assert options["start"] is None
    assert options["prefetch"] == 0


def test_workers_must_be_a_positive_integer():
    assert backend_options("process:workers=3")[1]["workers"] == 3
    with pytest.raises(ValidationError, match="workers"):
        backend_options("process:workers=zero")
    with pytest.raises(ValidationError, match="workers"):
        backend_options("process:workers=0")


def test_strict_is_binary():
    assert backend_options("process:strict=0")[1]["strict"] is False
    assert backend_options("process:strict=1")[1]["strict"] is True
    with pytest.raises(ValidationError, match="strict"):
        backend_options("process:strict=yes")


def test_start_method_is_checked():
    assert backend_options("process:start=spawn")[1]["start"] == "spawn"
    with pytest.raises(ValidationError, match="start"):
        backend_options("process:start=teleport")


# ----------------------------------------------------------------------
# ProcessBackend
# ----------------------------------------------------------------------
def test_process_backend_is_lazily_started():
    backend = ProcessBackend(workers=2)
    try:
        assert backend.workers == 2
        # lazily started: building the backend must not fork anything.
        assert backend.worker_pids() == []
    finally:
        backend.close()


def test_spec_kinds_are_serial_and_process():
    assert set(BACKEND_SPEC) == {"serial", "process"}
    assert ProcessBackend.kind == "process"


# ----------------------------------------------------------------------
# EngineOptions integration
# ----------------------------------------------------------------------
def test_engine_options_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert EngineOptions().backend == "serial"


def test_engine_options_honours_repro_backend_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "process:workers=2")
    assert EngineOptions().backend == "process:workers=2"
    # explicit argument still wins over the environment
    assert EngineOptions(backend="serial").backend == "serial"


def test_engine_options_validates_the_spec():
    with pytest.raises(ValidationError):
        EngineOptions(backend="warp")
    with pytest.raises(ValidationError):
        EngineOptions(backend="process:workers=none")
