"""Backend spec grammar, registry and EngineOptions integration."""

from __future__ import annotations

import pytest

from repro.core import EngineOptions
from repro.core.backend import (
    BACKEND_KINDS,
    ProcessBackend,
    SerialBackend,
    backend_options,
    make_backend,
    parse_backend_spec,
)
from repro.errors import GraphFormatError, ValidationError


# ----------------------------------------------------------------------
# parse_backend_spec: the raw kind[:key=value]* grammar
# ----------------------------------------------------------------------
def test_bare_kinds_parse():
    assert parse_backend_spec("serial") == ("serial", {})
    assert parse_backend_spec("process") == ("process", {})


def test_options_parse_in_order():
    kind, options = parse_backend_spec("process:workers=8:chunk=auto:strict=0")
    assert kind == "process"
    assert options == {"workers": "8", "chunk": "auto", "strict": "0"}


def test_unknown_kind_is_refused():
    with pytest.raises(ValidationError, match="unknown backend kind"):
        parse_backend_spec("threads")


def test_unknown_option_is_refused():
    with pytest.raises(ValidationError, match="does not accept option"):
        parse_backend_spec("process:depth=3")


def test_serial_accepts_only_prefetch():
    with pytest.raises(ValidationError, match="does not accept option"):
        parse_backend_spec("serial:workers=2")
    assert parse_backend_spec("serial:prefetch=2") == ("serial", {"prefetch": "2"})


def test_malformed_option_is_refused():
    with pytest.raises(ValidationError, match="expected key=value"):
        parse_backend_spec("process:workers")


def test_duplicate_option_is_refused():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_backend_spec("process:workers=2:workers=4")


def test_validation_error_is_both_graph_error_and_value_error():
    # EngineOptions.__post_init__ promises ValueError on bad input; the
    # spec grammar keeps that promise via the ValidationError subclass.
    with pytest.raises(GraphFormatError):
        parse_backend_spec("nope")
    with pytest.raises(ValueError):
        parse_backend_spec("nope")


# ----------------------------------------------------------------------
# backend_options: typed resolution
# ----------------------------------------------------------------------
def test_serial_typed_options_are_prefetch_only():
    assert backend_options("serial") == ("serial", {"prefetch": 0})
    assert backend_options("serial:prefetch=3") == ("serial", {"prefetch": 3})


def test_sparse_and_prefetch_are_typed():
    kind, options = backend_options("process:workers=2:sparse=1:prefetch=2")
    assert kind == "process"
    assert options["sparse"] is True
    assert options["prefetch"] == 2
    assert backend_options("process")[1]["sparse"] is False
    assert backend_options("process")[1]["prefetch"] == 0
    with pytest.raises(ValidationError, match="sparse"):
        backend_options("process:sparse=yes")
    with pytest.raises(ValidationError, match="prefetch"):
        backend_options("process:prefetch=-1")
    with pytest.raises(ValidationError, match="prefetch"):
        backend_options("serial:prefetch=deep")


def test_process_defaults_are_resolved():
    kind, options = backend_options("process")
    assert kind == "process"
    assert options["workers"] >= 1
    assert options["chunk"] == "auto"
    assert options["strict"] is True
    assert options["start"] is None


def test_workers_must_be_a_positive_integer():
    assert backend_options("process:workers=3")[1]["workers"] == 3
    with pytest.raises(ValidationError, match="workers"):
        backend_options("process:workers=zero")
    with pytest.raises(ValidationError, match="workers"):
        backend_options("process:workers=0")


def test_chunk_is_auto_or_a_positive_integer():
    assert backend_options("process:chunk=5")[1]["chunk"] == 5
    with pytest.raises(ValidationError, match="chunk"):
        backend_options("process:chunk=half")
    with pytest.raises(ValidationError, match="chunk"):
        backend_options("process:chunk=-1")


def test_strict_is_binary():
    assert backend_options("process:strict=0")[1]["strict"] is False
    assert backend_options("process:strict=1")[1]["strict"] is True
    with pytest.raises(ValidationError, match="strict"):
        backend_options("process:strict=yes")


def test_start_method_is_checked():
    with pytest.raises(ValidationError, match="start"):
        backend_options("process:start=teleport")


# ----------------------------------------------------------------------
# make_backend
# ----------------------------------------------------------------------
def test_make_backend_builds_each_kind():
    assert isinstance(make_backend("serial"), SerialBackend)
    backend = make_backend("process:workers=2:chunk=3:strict=0")
    try:
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 2
        assert backend.chunk == 3
        assert backend.strict is False
        # lazily started: building the backend must not fork anything.
        assert backend.worker_pids() == []
    finally:
        backend.close()


def test_backend_kinds_cover_the_registry():
    for kind in BACKEND_KINDS:
        backend = make_backend(kind)
        try:
            assert backend.kind == kind
        finally:
            backend.close()


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
