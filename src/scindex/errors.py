"""Exception types shared across the package.

Every error raised by scindex derives from :class:`ScindexError`, so
callers (and the CLI) can catch one base class and still distinguish the
specific failure.  The exceptions are Python's own protocol errors: a
``TypeError`` for a call with a wrong number of arguments, for a
non-iterable list that is not read as pairs, names or a portfolio's
vector, and for ``+``, ``-`` or ordering of a quantity against a
non-quantity; and a ``KeyError`` for a name an ``IndicatorReport`` does
not hold, as from any mapping.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction

_SHOWN_LENGTH = 40  # characters of an input value that an error message echoes
_LOG10_2 = 30102999566398119521  # floor(log10(2) * 10^20)


def shown(value: object) -> str:
    """``repr(value)`` as an error message echoes it: one longer than
    ``_SHOWN_LENGTH`` characters is cut there, and the length of the value
    (of its repr, if it is not a string) is stated.  An int too long for
    ``repr`` (past ``sys.get_int_max_str_digits()``), alone or inside the
    value, is not converted: only its number of digits is stated (see
    :func:`digit_safe_repr`).
    """
    text = digit_safe_repr(value)
    if len(text) <= _SHOWN_LENGTH:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:_SHOWN_LENGTH]}... ({size} characters)"


def digit_safe_repr(value: object) -> str:
    """``repr(value)``, or, where an int in it is past the digit limit,
    :mod:`reprlib`'s short repr with each int by :func:`digits_text`."""
    try:
        return repr(value)
    except ValueError:
        return _DigitSafeRepr().repr(value)


def digits_text(n: int) -> str:
    """``str(n)``, or ``<integer of N digits>`` (``<negative integer of N
    digits>``) for an int past ``sys.get_int_max_str_digits()``, which
    ``str`` refuses."""
    try:
        return str(n)
    except ValueError:
        sign = "negative " if n < 0 else ""
        return f"<{sign}integer of {_digits(abs(n))} digits>"


class _DigitSafeRepr(reprlib.Repr):
    """``reprlib``'s short repr, with each int by :func:`digits_text`."""

    def repr_int(self, x: int, level: int) -> str:
        return digits_text(x)

    def repr_Fraction(self, x: Fraction, level: int) -> str:
        return f"Fraction({digits_text(x.numerator)}, {digits_text(x.denominator)})"


def _digits(n: int) -> int:
    """The number of decimal digits of ``n > 0``, without converting it.

    With b = n.bit_length() and k = floor((b-1)*log10(2)),
    10^k <= 2^(b-1) <= n < 2^b < 10^(k+2): n has k+1 digits, or k+2 when
    n >= 10^(k+1).  ``_LOG10_2`` is short of log10(2) by less than
    10^-20, so k may come out one less, but only when (b-1)*log10(2)
    lies less than (b-1)*10^-20 above an integer.  For b up to 6.9*10^19
    that is under 1 - log10(2), so 2^b < 10^(k+1): n has k+1 digits, and
    the comparison made with the smaller k still counts them.
    """
    k = (n.bit_length() - 1) * _LOG10_2 // 10**20
    return k + 1 + (n >= 10 ** (k + 1))


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
        where = f", found {shown(found)}" if found else ""
        super().__init__(f"expected {expected} at position {position}{where}")


class UnknownSymbolError(ScindexError):
    """A dimension expression used a name missing from the symbol table."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown symbol {shown(name)}")


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
        super().__init__(f"unknown indicator {shown(name)}")


class FormatError(_LocatedError):
    """Malformed tabular input.

    ``line`` is the 1-based text line: the one a CSV row starts on, or that
    of a JSON document that does not decode to an array (1 when it decodes
    to something else).  A malformed record of a JSON array sets ``record``,
    its 1-based position in the array, and leaves ``line`` None.
    """
