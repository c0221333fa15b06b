"""The one ``kind[:key=value]*`` grammar, over both tables that use it.

Every case runs against the backend table and the store table: the
grammar is implemented once (``repro.spec``), so it is tested once.
What each table's options *mean* is pinned next to its consumer
(``tests/core/test_backend.py``, ``tests/resilience/test_checkpoint_stores.py``).
"""

from __future__ import annotations

import pytest

from repro.core.backend import BACKEND_SPEC
from repro.errors import ValidationError
from repro.resilience.store import STORE_SPEC
from repro.spec import choice, flag, integer, parse_spec

TABLES = {"backend": BACKEND_SPEC, "store": STORE_SPEC}

#: one well-formed item per option name, and the value it converts to.
VALID = {
    "workers": ("2", 2), "strict": ("0", False),
    "prefetch": ("1", 1), "replicas": ("3", 3),
}


@pytest.fixture(params=sorted(TABLES))
def grammar(request):
    return request.param


def _parse(grammar, spec):
    return parse_spec(grammar, TABLES[grammar], spec)


def _options(grammar):
    """Every (kind, option name, Option) the grammar's table declares."""
    return [
        (kind, key, option)
        for kind, declared in TABLES[grammar].items()
        for key, option in declared.items()
    ]


def test_bare_kinds_resolve_every_default(grammar):
    for kind, declared in TABLES[grammar].items():
        assert _parse(grammar, kind) == (
            kind, {key: option.default for key, option in declared.items()}
        )


def test_unknown_kind_names_the_grammar_and_the_kind(grammar):
    with pytest.raises(ValidationError, match=f"unknown {grammar} kind 'warp'"):
        _parse(grammar, "warp")
    with pytest.raises(ValidationError, match=f"unknown {grammar} kind"):
        _parse(grammar, "warp:x=1")


def test_options_convert_to_their_type(grammar):
    for kind, key, _ in _options(grammar):
        text, typed = VALID[key]
        value = _parse(grammar, f"{kind}: {key} = {text} ")[1][key]  # blanks are trimmed
        assert value == typed and type(value) is type(typed)


def test_unknown_option_names_kind_and_option(grammar):
    for kind in TABLES[grammar]:
        with pytest.raises(ValidationError) as err:
            _parse(grammar, f"{kind}:depth=3")
        assert f"{grammar} kind {kind!r} does not accept option 'depth'" in str(err.value)


def test_missing_equals_is_refused(grammar):
    for kind, key, _ in _options(grammar):
        for item in (key, "=1"):
            with pytest.raises(ValidationError, match="expected key=value"):
                _parse(grammar, f"{kind}:{item}")


def test_duplicate_option_is_refused(grammar):
    for kind, key, _ in _options(grammar):
        item = f"{key}={VALID[key][0]}"
        with pytest.raises(ValidationError, match=f"duplicate {grammar} option {key!r}"):
            _parse(grammar, f"{kind}:{item}:{item}")


def test_ill_typed_value_names_the_option_and_what_it_expects(grammar):
    for kind, key, option in _options(grammar):
        with pytest.raises(ValidationError) as err:
            _parse(grammar, f"{kind}:{key}=?")
        assert (
            f"{grammar} option {key!r} of kind {kind!r} must be {option.expects}, got '?'"
            in str(err.value)
        )


def test_converters():
    assert integer(None).convert("-3") == -3
    assert integer(None, minimum=1).convert("1") == 1
    with pytest.raises(ValueError):
        integer(None, minimum=1).convert("0")
    with pytest.raises(ValueError):
        integer(None).convert("1.5")
    assert [flag(False).convert(text) for text in "01"] == [False, True]
    with pytest.raises(KeyError):
        flag(False).convert("yes")
    assert choice(None, ("a", "b")).convert("b") == "b"
    with pytest.raises(KeyError):
        choice(None, ("a", "b")).convert("c")


@pytest.mark.parametrize(
    "grammar, spec, key",
    [
        ("backend", "process:sparse=1", "sparse"),
        ("backend", "process:chunk=3", "chunk"),
        ("backend", "threads:start=spawn", "start"),
        ("backend", "threads:workers=2:prefetch=2", "prefetch"),
        ("store", "sharded:parts=1024", "parts"),
        ("store", "local:autosync=0", "autosync"),
    ],
)
def test_deleted_options_are_refused_by_name(grammar, spec, key):
    with pytest.raises(ValidationError, match=f"does not accept option {key!r}"):
        _parse(grammar, spec)
