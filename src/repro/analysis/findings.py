"""Finding records shared by the static lint pass and the sanitizer."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a precise source location.

    Ordered by (path, line, col, code) so reports are stable regardless
    of rule execution order.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` — the compiler-style report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

