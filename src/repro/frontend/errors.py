"""Frontend diagnostics with source positions."""

from __future__ import annotations

from typing import Optional


class FrontendError(Exception):
    """Base class for all frontend errors.

    ``path``, the source file when the loader knows it, leads the
    message: ``src/Main.alite:12:1: unexpected token ''``.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.message = message
        self.line = line
        self.column = column
        self.path: Optional[str] = None
        super().__init__(message)

    def __str__(self) -> str:
        if self.path is None:
            location = f" at {self.line}:{self.column}" if self.line else ""
            return f"{self.message}{location}"
        where = [self.path] + [str(n) for n in (self.line, self.column) if n]
        return f"{':'.join(where)}: {self.message}"


class LexError(FrontendError):
    """Invalid character or malformed literal."""


class ParseError(FrontendError):
    """Syntax error."""


class LowerError(FrontendError):
    """Name-resolution or typing error during lowering."""
