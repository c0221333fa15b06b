"""The ``kind[:key=value]*`` spec grammar, implemented once.

Execution backends (``EngineOptions.backend``, ``--backend``) and
checkpoint stores (``--store``) are both selected by a *spec* string: a
bare kind (``serial``, ``sharded``) or a kind followed by
colon-separated ``key=value`` options (``process:workers=2:strict=0``,
``remote:seed=7:deadline=10``).  Each of those modules declares only a
table ``{kind: {option: Option}}``; :func:`parse_spec` does the rest —
split, unknown-kind / unknown-option / missing-``=`` / duplicate checks
and typed conversion with defaults — raising
:class:`~repro.errors.ValidationError` (a :class:`ValueError` subclass)
that names the grammar, the kind and the option.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .errors import ValidationError

__all__ = ["Option", "integer", "number", "flag", "choice", "string", "parse_spec"]


@dataclass(frozen=True)
class Option:
    """One spec option: how its text converts, and its value when absent."""

    #: text -> typed value; :class:`ValueError` or :class:`KeyError` on
    #: anything else.
    convert: Callable[[str], Any]
    #: what a well-formed value is, for the error message.
    expects: str
    default: Any


def integer(default: int | None, *, minimum: int | None = None) -> Option:
    """An integer, optionally bounded below."""

    def convert(text: str) -> int:
        value = int(text)
        if minimum is not None and value < minimum:
            raise ValueError(text)
        return value

    bound = "" if minimum is None else f" >= {minimum}"
    return Option(convert, f"an integer{bound}", default)


def number(default: float) -> Option:
    """A float."""
    return Option(float, "a number", default)


def flag(default: bool) -> Option:
    """``0`` or ``1``."""
    return Option({"0": False, "1": True}.__getitem__, "0 or 1", default)


def choice(default: str | None, allowed) -> Option:
    """One of a fixed set of words."""
    words = {word: word for word in allowed}
    return Option(words.__getitem__, f"one of {tuple(words)}", default)


def string(default: str | None) -> Option:
    """Free text, kept as is (a value with its own format and parser)."""
    return Option(str, "text", default)


def parse_spec(
    grammar: str, table: Mapping[str, Mapping[str, Option]], spec: str
) -> tuple[str, dict[str, Any]]:
    """Parse ``spec`` against ``table``; returns ``(kind, options)``.

    ``options`` holds every option ``table[kind]`` declares, converted
    to its type, absent ones at their default.  ``grammar`` is the word
    the error messages use for the table (``"backend"``, ``"store"``).
    """
    head, *items = spec.split(":")
    kind = head.strip()
    if kind not in table:
        raise ValidationError(
            f"unknown {grammar} kind {kind!r}; expected one of {tuple(table)}"
        )
    declared = table[kind]
    options = {key: option.default for key, option in declared.items()}
    seen: set[str] = set()
    for item in items:
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValidationError(
                f"bad {grammar} option {item!r} in {spec!r} (expected key=value)"
            )
        if key not in declared:
            raise ValidationError(
                f"{grammar} kind {kind!r} does not accept option {key!r}; "
                f"allowed: {sorted(declared) or 'none'}"
            )
        if key in seen:
            raise ValidationError(f"duplicate {grammar} option {key!r} in {spec!r}")
        seen.add(key)
        try:
            options[key] = declared[key].convert(value)
        except (ValueError, KeyError):
            raise ValidationError(
                f"{grammar} option {key!r} of kind {kind!r} must be "
                f"{declared[key].expects}, got {value!r}"
            ) from None
    return kind, options
