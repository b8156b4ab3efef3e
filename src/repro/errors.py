"""The one error type for bad input: source, smali, resource XML,
manifest, or a CLI option value. The loaders attach the project-relative
path of the file being read; the CLI maps the family to ``error: ...``
and exit code 2, and the batch runner fails such an app without retry.
"""

from __future__ import annotations

from typing import Optional


class ReproError(ValueError):
    """Malformed input, located by ``path``, ``line`` and ``column``
    where known (0 or None when unknown)."""

    def __init__(
        self, message: str, line: int = 0, column: int = 0, path: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.path = path

    def __str__(self) -> str:
        if self.path is None:
            return f"line {self.line}: {self.message}" if self.line else self.message
        where = [self.path] + [str(n) for n in (self.line, self.column) if n]
        return f"{':'.join(where)}: {self.message}"
