"""Shared exception hierarchy.

Every error this package raises deliberately derives from
:class:`ScholarGraphError`, so callers (and the CLI) can catch one type and
map it to a nonzero exit without swallowing genuine bugs.
"""

from __future__ import annotations


class ScholarGraphError(Exception):
    """Base class for all errors raised by this package."""


class PositionedError(ScholarGraphError):
    """An error tied to a line/column position in some input text.

    ``line`` and ``column`` are 1-based.
    """

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class TermError(ScholarGraphError):
    """A term or triple violated a structural invariant."""
