"""Exact rational-exponent unit algebra over the publication unit.

Bibliometric quantities carry powers of a single base unit, one
publication: a paper count has dimension [P], a total citation count
[P^2] (papers citing papers), and derived indices land on rational
powers such as [P^3/2].  Exponents are stored as exact
:class:`fractions.Fraction` values, so [P^3/2] never drifts to 1.4999.

Arithmetic between :class:`Quantity` values is homogeneity-checked:
adding or ordering values of different dimension raises
:class:`HeterogeneityError` instead of producing a number with no
meaning.

>>> total = Quantity(7013, PAPERS_SQUARED)
>>> papers = Quantity(96, PAPERS)
>>> str((total / papers).dim)
'[P]'
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError, HeterogeneityError

__all__ = [
    "Dimension",
    "Quantity",
    "DIMENSIONLESS",
    "PAPERS",
    "PAPERS_SQUARED",
    "PAPERS_CUBED",
    "qty_compare",
]

Rational = Union[Fraction, int]


class Record:
    """An immutable value over its ``__slots__``: equality, hash and repr by field.

    A constructor sets the fields through :meth:`_fill` and takes them in
    slot order, which is how copy and pickle rebuild a record.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _fill(self, *values: object) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


class Dimension(Record):
    """A rational power of the base publication unit.

    ``Dimension(2)`` is [P^2]; ``Dimension(Fraction(3, 2))`` is [P^3/2].
    ``Fraction`` keeps the exponent in lowest terms with a positive
    denominator, which makes equality exact.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: Rational = 0) -> None:
        self._fill(Fraction(exponent))

    @property
    def is_dimensionless(self) -> bool:
        return self.exponent == 0

    def __mul__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return Dimension(self.exponent + other.exponent)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return Dimension(self.exponent - other.exponent)

    def __pow__(self, power: Rational) -> "Dimension":
        return Dimension(self.exponent * Fraction(power))

    def __str__(self) -> str:
        # Rendering contract: lowest terms, "[P]" for exponent 1, the
        # word "dimensionless" for exponent 0.
        e = self.exponent
        if e == 0:
            return "dimensionless"
        if e == 1:
            return "[P]"
        if e.denominator == 1:
            return f"[P^{e.numerator}]"
        return f"[P^{e.numerator}/{e.denominator}]"

    def __repr__(self) -> str:
        return f"Dimension({self.exponent!r})"


DIMENSIONLESS = Dimension(0)
PAPERS = Dimension(1)
PAPERS_SQUARED = Dimension(2)
PAPERS_CUBED = Dimension(3)


class Quantity(Record):
    """A finite real magnitude paired with a :class:`Dimension`.

    Addition, subtraction and ordered comparison require both operands
    to share a dimension; multiplication and division combine
    dimensions.  Equality (``==``) never raises: quantities of
    different dimension simply compare unequal.  Use
    :func:`qty_compare` for the checked three-way comparison.
    """

    __slots__ = ("magnitude", "dim")

    def __init__(self, magnitude: float, dim: Dimension = DIMENSIONLESS) -> None:
        value = float(magnitude)
        if not math.isfinite(value):
            raise DomainError(f"quantity magnitude must be finite, got {value!r}")
        self._fill(value, dim)

    def _require_same_dim(self, other: "Quantity", operation: str) -> None:
        if self.dim != other.dim:
            raise HeterogeneityError(self.dim, other.dim, operation)

    def __add__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        self._require_same_dim(other, "add")
        return Quantity(self.magnitude + other.magnitude, self.dim)

    def __sub__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        self._require_same_dim(other, "subtract")
        return Quantity(self.magnitude - other.magnitude, self.dim)

    def __mul__(self, other: "Quantity | float | int") -> "Quantity":
        if isinstance(other, Quantity):
            return Quantity(self.magnitude * other.magnitude, self.dim * other.dim)
        if isinstance(other, (int, float)):
            return Quantity(self.magnitude * other, self.dim)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: "Quantity | float | int") -> "Quantity":
        if isinstance(other, Quantity):
            if other.magnitude == 0:
                raise DomainError("division by a zero-magnitude quantity")
            return Quantity(self.magnitude / other.magnitude, self.dim / other.dim)
        if isinstance(other, (int, float)):
            if other == 0:
                raise DomainError("division by zero")
            return Quantity(self.magnitude / other, self.dim)
        return NotImplemented

    def __pow__(self, power: Rational) -> "Quantity":
        exponent = Fraction(power)
        try:
            value = self.magnitude ** float(exponent)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot raise {self.magnitude} to power {exponent}") from exc
        if isinstance(value, complex) or not math.isfinite(value):
            raise DomainError(f"cannot raise {self.magnitude} to power {exponent}")
        return Quantity(value, self.dim**exponent)

    def __lt__(self, other: "Quantity") -> bool:
        self._require_same_dim(other, "compare")
        return self.magnitude < other.magnitude

    def __le__(self, other: "Quantity") -> bool:
        self._require_same_dim(other, "compare")
        return self.magnitude <= other.magnitude

    def __gt__(self, other: "Quantity") -> bool:
        self._require_same_dim(other, "compare")
        return self.magnitude > other.magnitude

    def __ge__(self, other: "Quantity") -> bool:
        self._require_same_dim(other, "compare")
        return self.magnitude >= other.magnitude

    def __str__(self) -> str:
        return f"{self.magnitude:g} {self.dim}"


def qty_compare(a: Quantity, b: Quantity) -> int:
    """Three-way ordering of like-dimensioned quantities.

    Returns -1, 0 or 1.  Raises :class:`HeterogeneityError` when the
    dimensions differ, because incommensurable quantities admit no
    order at all.
    """
    if a.dim != b.dim:
        raise HeterogeneityError(a.dim, b.dim, "compare")
    if a.magnitude < b.magnitude:
        return -1
    if a.magnitude > b.magnitude:
        return 1
    return 0
