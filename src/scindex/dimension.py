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

The value rules of every entry point live here too.  :func:`real`,
:func:`count` and :func:`rational` read a value as a float, an int or an
exact ``Fraction``, :func:`finite` as a float that must be finite (a
quantity's magnitude, a plotted fit, a matrix cell), and :func:`text` a
label, name or title as a ``str`` that UTF-8 can encode; a bool (a truth
value, though ``numbers`` registers it as an int) or a value of another
kind is a :class:`DomainError` that names it.
:func:`real` passes an exact float and :func:`count` an exact int at
once, so a caller needs no type test of its own for one value.  Three hot
paths still test before calling a rule: a summary row tests the
exact type of each field inline (``analytics._check_summary``), a
:class:`~scindex.indicators.CitationVector` tests the types of its whole
list of counts at once, and the JSON reader proves a wide array all ints
by the types of its tally's distinct values and the absence of ``true``,
``false`` and float tokens from the file (``tabular._json_records``).
:func:`check_tolerance` reads a slope gate, a real that must be finite
and >= 0.  :func:`pairs` and :func:`name_list` read the shape of a list:
of runs or points, and of indicator names.

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

from .errors import DomainError, HeterogeneityError, digit_safe_repr, digits_text, shown

Rational = Union[Fraction, int]


def real(value: object, name: str) -> float:
    """``value`` as a float: any ``numbers.Real``, a ``Fraction`` or a NumPy
    scalar included, but no int past the float range.  An exact float or int
    skips the ``numbers`` test."""
    if type(value) is float:
        return value
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise DomainError(f"{name} must be a real number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} exceeds the floating-point range") from None


def finite(value: object, name: str) -> float:
    """``value`` read by :func:`real`, which must be finite."""
    value = real(value, name)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {shown(value)}")
    return value


def count(value: object, name: str) -> int:
    """``value`` as an int: any ``numbers.Integral``, a NumPy int included,
    but no float.  The message states the rule in the plural, as counts come
    in lists: ``citation counts must be integers, got True``.  An exact int
    skips the ``numbers`` test."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be integers, got {shown(value)}")
    return int(value)


def rational(value: object, name: str) -> Fraction:
    """``value`` as a ``Fraction`` of Python ints: an int or a ``Fraction``,
    but no float, as ``1/3`` is a binary fraction near the one meant."""
    if isinstance(value, bool) or not isinstance(value, numbers.Rational):
        raise DomainError(f"{name} must be a rational number, got {shown(value)}")
    return Fraction(int(value.numerator), int(value.denominator))


def text(value: object, name: str) -> str:
    """``value``, which must be a ``str`` that UTF-8 can encode (no lone
    surrogate, which a JSON ``\\ud800`` escape can give): a label, a name
    or a title, for every writer to take it."""
    if not isinstance(value, str):
        raise DomainError(f"{name} must be a string, got {shown(value)}")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise DomainError(f"{name} must be UTF-8 text, got {shown(value)}") from None
    return value


def check_tolerance(tolerance: float, name: str = "tolerance") -> float:
    """``tolerance`` read by :func:`real`; :class:`DomainError` unless it is
    a finite number >= 0."""
    value = real(tolerance, name)
    if not 0 <= value < math.inf:
        raise DomainError(f"{name} must be a finite number >= 0, got {value}")
    return value


def pairs(items: object, name: str) -> list[tuple]:
    """The items of ``items`` as 2-tuples; a non-iterable ``items``, or an
    item that is no pair, is a :class:`DomainError` that names ``name``."""
    try:
        return [(first, second) for first, second in items]
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be pairs, got {shown(items)}") from None


def name_list(items: object, name: str) -> tuple[str, ...]:
    """The items of ``items`` as a tuple of names, each read by :func:`text`.
    A ``str`` (one name, not a list of its letters), a non-iterable ``items``
    or an item that is no ``str`` is a :class:`DomainError` that names
    ``name``."""
    try:
        if isinstance(items, str):
            raise TypeError
        listed = tuple(items)
    except TypeError:
        raise DomainError(f"{name} must be a list of names, got {shown(items)}") from None
    for item in listed:
        if not isinstance(item, str):
            raise DomainError(f"{name} must be strings, got {shown(item)}")
        text(item, name)  # UTF-8 text, as every name is
    return listed


class Record:
    """An immutable value over its ``__slots__``: equality, hash and repr by field.

    The constructor takes every field, by position in slot order or by
    name; a wrong number of fields or an unknown name is a ``TypeError``.
    A subclass that converts or checks its fields has its own, which sets
    them through ``_fill(self, *fields)``; copy and pickle pass them in
    slot order.  Each class gets its own ``_fill``, generated from its
    slots on its first use, as ``dataclasses`` generates ``__init__``: it
    calls each slot's setter in turn, and a wrong number of fields is a
    ``TypeError``.  A builder on a hot path whose fields are already
    checked calls the same setters, from :func:`slot_setters`, in its own
    frame, on an instance from ``object.__new__``.
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
        size = len(cls.__slots__)
        namespace = {f"s{k}": setter for k, setter in enumerate(slot_setters(cls))}
        params = "".join(f", v{k}" for k in range(size))
        body = "".join(f"\n s{k}(self, v{k})" for k in range(size)) or "\n pass"
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


def slot_setters(cls: type) -> tuple:
    """The setter of each of ``cls``'s slots, in slot order; each sets its
    field past the guarded ``__setattr__`` of a record."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Dimension(Record):
    """A rational power of the base publication unit.

    ``Dimension(2)`` is [P^2]; ``Dimension(Fraction(3, 2))`` is [P^3/2].
    ``Fraction`` keeps the exponent in lowest terms with a positive
    denominator, which makes equality exact.  An exponent, here or in
    ``**``, is read by :func:`rational`, so a float is refused.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: Rational = 0) -> None:
        self._fill(rational(exponent, "exponent"))

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
        return Dimension(self.exponent * rational(power, "exponent"))

    def __str__(self) -> str:
        # Rendering contract: lowest terms, "[P]" for exponent 1, the
        # word "dimensionless" for exponent 0.
        e = self.exponent
        if e == 0:
            return "dimensionless"
        if e == 1:
            return "[P]"
        return f"[P^{_ratio_text(e)}]"

    def __repr__(self) -> str:
        return f"Dimension({digit_safe_repr(self.exponent)})"


def _ratio_text(e: Fraction) -> str:
    """``str(e)``, each int of it by :func:`~scindex.errors.digits_text`, so
    an exponent past the int digit limit is named by its number of digits."""
    if e.denominator == 1:
        return digits_text(e.numerator)
    return f"{digits_text(e.numerator)}/{digits_text(e.denominator)}"


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

    The magnitude is held as a float, read by :func:`finite`.

    Addition, subtraction and ordered comparison (``<``, ``<=``, ``>``,
    ``>=``) require both operands to share a dimension; multiplication
    and division combine dimensions, and a factor or divisor that is no
    quantity is read by :func:`real`.  Ordering against a non-quantity,
    such as a bare number, is a ``TypeError``.  Equality (``==``) never
    raises: quantities of different dimension simply compare unequal.
    """

    __slots__ = ("magnitude", "dim")

    def __init__(self, magnitude: float, dim: Dimension = DIMENSIONLESS) -> None:
        if not isinstance(dim, Dimension):
            raise DomainError(f"quantity dimension must be a Dimension, got {shown(dim)}")
        self._fill(finite(magnitude, "quantity magnitude"), dim)

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
        return Quantity(self.magnitude * real(other, "quantity factor"), self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other: "Quantity | float | int") -> "Quantity":
        if isinstance(other, Quantity):
            divisor, dim = other.magnitude, self.dim / other.dim
        else:
            divisor, dim = real(other, "quantity divisor"), self.dim
        if divisor == 0:
            raise DomainError("division by zero")
        return Quantity(self.magnitude / divisor, dim)

    def __pow__(self, power: Rational) -> "Quantity":
        exponent = rational(power, "exponent")
        try:
            value = self.magnitude ** float(exponent)
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        if isinstance(value, complex) or not math.isfinite(value):  # no finite real power
            raise DomainError(f"cannot raise {self.magnitude} to power {_ratio_text(exponent)}")
        return Quantity(value, self.dim**exponent)

    __lt__ = _ordered(operator.lt)
    __le__ = _ordered(operator.le)
    __gt__ = _ordered(operator.gt)
    __ge__ = _ordered(operator.ge)

    def __str__(self) -> str:
        return f"{self.magnitude:g} {self.dim}"

