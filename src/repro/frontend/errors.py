"""Frontend diagnostics with source positions."""

from __future__ import annotations

from repro.errors import ReproError


class FrontendError(ReproError):
    """Base class for all frontend errors."""


class LexError(FrontendError):
    """Invalid character or malformed literal."""


class ParseError(FrontendError):
    """Syntax error."""


class LowerError(FrontendError):
    """Name-resolution or typing error during lowering."""
