"""Exact rational-exponent unit algebra over the publication unit.

Bibliometric quantities carry powers of a single base unit, one
publication: a paper count has dimension [P], a total citation count
[P^2] (papers citing papers), and derived indices land on rational
powers such as [P^3/2].  Exponents are stored as exact
:class:`fractions.Fraction` values, so [P^3/2] never drifts to 1.4999.

The homogeneity rule is the ``+`` and ``-`` of :class:`Dimension`: two
different dimensions raise :class:`HeterogeneityError` instead of giving
a number with no meaning.  :class:`Quantity` applies it to ``+``, ``-``,
``<``, ``<=``, ``>`` and ``>=``, so ``eval_dim_expr`` evaluates a formula
over a dimension table or over a report of quantities alike.

>>> total = Quantity(7013, PAPERS_SQUARED)
>>> papers = Quantity(96, PAPERS)
>>> str((total / papers).dim)
'[P]'
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from typing import Callable, Union

from .errors import DomainError, HeterogeneityError, shown

Rational = Union[Fraction, int]


def _exponent(value: object) -> Fraction:
    """``value`` as an exact exponent of Python ints.  Only a rational number
    is one: a float such as ``1/3`` is a binary fraction near the one meant,
    and a NumPy int would keep its fixed width inside a ``Fraction``.  A
    ``bool`` is registered as one but is a truth value, so it is refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Rational):
        raise DomainError(f"exponent must be a rational number, got {shown(value)}")
    return Fraction(int(value.numerator), int(value.denominator))


def _real(value: object, name: str) -> float:
    """``value`` as a float: an exact float as it is, another real number by
    ``float()``.  A bool, any other value and an int past the float range are
    a :class:`DomainError` that names ``name``.
    """
    if type(value) is float:
        return value
    if type(value) is not int:  # an exact int skips the ABC test
        _require_real(value, name)
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} exceeds the floating-point range") from None


def _require_real(value: object, name: str) -> None:
    """Refuse ``name`` unless it is a real number; a ``bool`` is registered as
    one but is a truth value, so it is refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {shown(value)}")


class Record:
    """An immutable value over its ``__slots__``: equality, hash and repr by field.

    The constructor takes every field, by position in slot order or by
    name; a wrong number of fields or an unknown name is a ``TypeError``.
    A subclass that converts or checks its fields has its own, which sets
    them through ``_fill(self, *fields)``; copy and pickle pass them in
    slot order.  Each class gets its own ``_fill``, generated from its
    slots on its first use, as ``dataclasses`` generates ``__init__``: it
    calls each slot's setter in turn, and a wrong number of fields is a
    ``TypeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fill = Record._fill

    def _fill(self, *values: object) -> None:
        """Generate the class's own ``_fill`` on its first use, then call it."""
        # def _fill(self, v0, v1):
        #     s0(self, v0)
        #     s1(self, v1)
        # with s0, s1 the setters of the first and second slot as its globals.
        cls = type(self)
        count = len(cls.__slots__)
        namespace = {f"s{k}": getattr(cls, name).__set__ for k, name in enumerate(cls.__slots__)}
        params = "".join(f", v{k}" for k in range(count))
        body = "".join(f"\n s{k}(self, v{k})" for k in range(count)) or "\n pass"
        exec(f"def _fill(self{params}):{body}", namespace)
        cls._fill = namespace["_fill"]
        cls._fill.__qualname__ = f"{cls.__qualname__}._fill"
        cls._fill(self, *values)

    def __init__(self, *values: object, **named: object) -> None:
        slots, name = self.__slots__, type(self).__qualname__
        try:
            values += tuple(map(named.pop, slots[len(values) :]))
        except KeyError as exc:
            raise TypeError(f"{name}() missing field {exc}") from None
        if named:
            raise TypeError(f"{name}() got an unexpected field {next(iter(named))!r}")
        if len(values) != len(slots):
            raise TypeError(f"{name}() takes {len(slots)} fields, got {len(values)}")
        self._fill(*values)

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
    denominator, which makes equality exact.  An exponent, here or in
    ``**``, must be a rational number (an int or a ``Fraction``); any
    other, a float included, is a :class:`DomainError`.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: Rational = 0) -> None:
        self._fill(_exponent(exponent))

    def __add__(self, other: "Dimension", operation: str = "add") -> "Dimension":
        """The homogeneity rule: ``self`` if ``other`` is the same dimension,
        else :class:`HeterogeneityError` naming ``operation``."""
        if not isinstance(other, Dimension):
            return NotImplemented
        if other != self:
            raise HeterogeneityError(self, other, operation)
        return self

    def __sub__(self, other: "Dimension") -> "Dimension":
        return self.__add__(other, "subtract")

    def __mul__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return Dimension(self.exponent + other.exponent)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return Dimension(self.exponent - other.exponent)

    def __pow__(self, power: Rational) -> "Dimension":
        return Dimension(self.exponent * _exponent(power))

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


def _ordered(compare: Callable[[float, float], bool]) -> Callable:
    """An ordered comparison of two quantities of one dimension."""

    def method(self: "Quantity", other: "Quantity") -> bool:
        if not isinstance(other, Quantity):
            return NotImplemented
        self.dim.__add__(other.dim, "compare")
        return compare(self.magnitude, other.magnitude)

    return method


class Quantity(Record):
    """A finite real magnitude paired with a :class:`Dimension`.

    The magnitude is held as a float; a bool or a value that is no real
    number is a :class:`DomainError`.

    Addition, subtraction and ordered comparison (``<``, ``<=``, ``>``,
    ``>=``) require both operands to share a dimension; multiplication
    and division combine dimensions.  Ordering against a non-quantity,
    such as a bare number, is a ``TypeError``.  Equality (``==``) never
    raises: quantities of different dimension simply compare unequal.
    """

    __slots__ = ("magnitude", "dim")

    def __init__(self, magnitude: float, dim: Dimension = DIMENSIONLESS) -> None:
        if not isinstance(dim, Dimension):
            raise TypeError(f"quantity dimension must be a Dimension, got {shown(dim)}")
        # An exact float, as every kernel and table gives, passes at once.
        value = magnitude if type(magnitude) is float else _real(magnitude, "quantity magnitude")
        if not math.isfinite(value):
            raise DomainError(f"quantity magnitude must be finite, got {value!r}")
        self._fill(value, dim)

    def __add__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        return Quantity(self.magnitude + other.magnitude, self.dim + other.dim)

    def __sub__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        return Quantity(self.magnitude - other.magnitude, self.dim - other.dim)

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
        exponent = _exponent(power)
        try:
            value = self.magnitude ** float(exponent)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot raise {self.magnitude} to power {exponent}") from exc
        if isinstance(value, complex) or not math.isfinite(value):
            raise DomainError(f"cannot raise {self.magnitude} to power {exponent}")
        return Quantity(value, self.dim**exponent)

    __lt__ = _ordered(operator.lt)
    __le__ = _ordered(operator.le)
    __gt__ = _ordered(operator.gt)
    __ge__ = _ordered(operator.ge)

    def __str__(self) -> str:
        return f"{self.magnitude:g} {self.dim}"

