"""Exception types shared across the package.

Every error raised by scindex derives from :class:`ScindexError`, so
callers (and the CLI) can catch one base class and still distinguish the
specific failure.
"""

from __future__ import annotations

_SHOWN_LENGTH = 40  # characters of an input value that an error message echoes


def shown(value: object) -> str:
    """``repr(value)`` as an error message echoes it: one longer than
    ``_SHOWN_LENGTH`` characters is cut there, and the length of the value
    (of its repr, if it is not a string) is stated.
    """
    text = repr(value)
    if len(text) <= _SHOWN_LENGTH:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:_SHOWN_LENGTH]}... ({size} characters)"


class ScindexError(Exception):
    """Base class for all scindex errors."""


class DomainError(ScindexError):
    """An operand is outside the mathematical domain of an operation."""


class HeterogeneityError(ScindexError):
    """Quantities of different dimension were added or compared.

    Carries both offending dimensions so callers can report them.
    """

    def __init__(self, left: object, right: object, operation: str = "combine") -> None:
        self.left = left
        self.right = right
        self.operation = operation
        super().__init__(
            f"cannot {operation} quantities of dimension {left} and {right}"
        )


class ParseError(ScindexError):
    """Malformed dimension-expression text.

    ``position`` is the 0-based character offset of the offending token.
    """

    def __init__(self, expected: str, position: int, found: str = "") -> None:
        self.expected = expected
        self.position = position
        self.found = found
        shown = f", found {found!r}" if found else ""
        super().__init__(f"expected {expected} at position {position}{shown}")


class UnknownSymbolError(ScindexError):
    """A dimension expression used a name missing from the symbol table."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown symbol {name!r}")


class EmptyPortfolioError(ScindexError):
    """An indicator was requested for a portfolio with zero papers."""


class _LocatedError(ScindexError):
    """An input error prefixed with its 1-based ``line`` or ``record``, if known."""

    def __init__(self, message: str, line: int | None = None, record: int | None = None) -> None:
        self.line, self.record = line, record
        if line is not None:
            message = f"line {line}: {message}"
        elif record is not None:
            message = f"record {record}: {message}"
        super().__init__(message)


class NegativeCountError(_LocatedError):
    """A citation count was negative."""


class DegenerateSeriesError(ScindexError):
    """A scale series cannot be fit on log-log axes."""


class ZeroVarianceError(ScindexError):
    """A correlation column is constant."""

    def __init__(self, column: str) -> None:
        self.column = column
        super().__init__(f"column {column!r} has zero variance")


class UnknownIndicatorError(ScindexError):
    """A named indicator is not present in the table or registry."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown indicator {name!r}")


class FormatError(_LocatedError):
    """Malformed tabular input.

    ``line`` is the 1-based text line: the one a CSV row starts on, or that
    of a JSON document that does not decode to an array (1 when it decodes
    to something else).  A malformed record of a JSON array sets ``record``,
    its 1-based position in the array, and leaves ``line`` None.
    """
