"""Shared exception types."""

from __future__ import annotations


class BudgetExceeded(Exception):
    """An operation would materialize more bits or candidates than allowed."""


class NotAnOrdinal(ValueError):
    """An ordinal-only operation was applied to a non-ordinal set."""


class NotASubset(ValueError):
    """A lexicographic comparison was asked about sets outside the carrier."""


class LanguageMismatch(TypeError):
    """A translation or composition was applied to the wrong language."""


class FormulaSyntaxError(ValueError):
    """A formula or term failed to parse; carries the offending position."""

    def __init__(self, message: str, text: str = "", pos: int = -1) -> None:
        if pos >= 0:
            message = f"{message} (at position {pos}: {text[pos:pos + 12]!r})"
        super().__init__(message)
        self.text = text
        self.pos = pos


class UsageError(ValueError):
    """Arguments that parse but do not go together."""


class CorpusUnreadable(OSError):
    """A corpus named by path or packaged name could not be read."""
