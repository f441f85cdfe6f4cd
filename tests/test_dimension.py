"""Dimension and Quantity algebra: exact exponents, checked arithmetic."""

import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scindex import (
    DIMENSIONLESS,
    PAPERS,
    PAPERS_CUBED,
    PAPERS_SQUARED,
    Dimension,
    DomainError,
    HeterogeneityError,
    Quantity,
)
from scindex.dimension import finite, name_list, text
from scindex.indicators import EUCLIDEAN_DIM

exponents = st.fractions(min_value=-20, max_value=20, max_denominator=12)
dimensions = st.builds(Dimension, exponents)
ORDERINGS = [operator.lt, operator.le, operator.gt, operator.ge]


class TestDimensionAlgebra:
    def test_mul_adds_exponents(self):
        assert PAPERS * PAPERS == PAPERS_SQUARED

    def test_mul_identity(self):
        assert DIMENSIONLESS * EUCLIDEAN_DIM == EUCLIDEAN_DIM

    def test_mul_halves(self):
        half = Dimension(Fraction(1, 2))
        assert half * half == PAPERS

    def test_pow_cube_root(self):
        assert PAPERS_CUBED ** Fraction(1, 3) == PAPERS

    def test_pow_square_root(self):
        assert PAPERS_CUBED ** Fraction(1, 2) == EUCLIDEAN_DIM

    def test_pow_zero(self):
        assert PAPERS_SQUARED**0 == DIMENSIONLESS

    def test_division(self):
        assert PAPERS_SQUARED / PAPERS == PAPERS

    def test_exponent_stored_reduced(self):
        d = Dimension(Fraction(4, 8))
        assert d.exponent.numerator == 1
        assert d.exponent.denominator == 2

    @given(a=dimensions, b=dimensions)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(a=dimensions, b=dimensions, c=dimensions)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(a=dimensions)
    def test_mul_identity_element(self, a):
        assert a * DIMENSIONLESS == a

    @given(a=dimensions, r=exponents.filter(lambda f: f != 0))
    def test_pow_round_trips(self, a, r):
        assert (a**r) ** (1 / r) == a

    @given(
        a=dimensions,
        b=st.none() | dimensions,
        x=st.floats(-1e9, 1e9),
        y=st.floats(-1e9, 1e9),
    )
    def test_sum_and_difference_are_the_homogeneity_rule(self, a, b, x, y):
        b = a if b is None else b
        for operation, verb in ((operator.add, "add"), (operator.sub, "subtract")):
            if a == b:
                assert operation(a, b) == a
                assert operation(Quantity(x, a), Quantity(y, b)) == Quantity(operation(x, y), a)
                continue
            message = f"cannot {verb} quantities of dimension {a} and {b}"
            for left, right in ((a, b), (Quantity(x, a), Quantity(y, b))):
                with pytest.raises(HeterogeneityError) as excinfo:
                    operation(left, right)
                assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "left, operation",
        [
            (PAPERS, operator.mul),
            (PAPERS, operator.truediv),
            (Quantity(1.0, PAPERS), operator.add),
            (Quantity(1.0, PAPERS), operator.sub),
        ],
    )
    def test_a_number_on_the_right_is_a_type_error(self, left, operation):
        with pytest.raises(TypeError):
            operation(left, 2)

    @pytest.mark.parametrize("operation", [operator.add, operator.sub])
    def test_sum_with_a_number_is_a_type_error(self, operation):
        for left, right in ((PAPERS, 1), (1, PAPERS), (PAPERS, Quantity(1, PAPERS))):
            with pytest.raises(TypeError):
                operation(left, right)


class TestRendering:
    @pytest.mark.parametrize(
        "exponent, text",
        [
            (Fraction(0), "dimensionless"),
            (Fraction(1), "[P]"),
            (Fraction(2), "[P^2]"),
            (Fraction(3), "[P^3]"),
            (Fraction(3, 2), "[P^3/2]"),
            (Fraction(1, 2), "[P^1/2]"),
            (Fraction(-1), "[P^-1]"),
            (Fraction(-3, 2), "[P^-3/2]"),
        ],
    )
    def test_format(self, exponent, text):
        assert str(Dimension(exponent)) == text


# Past sys.get_int_max_str_digits(), which str() of an int refuses.
OVERLONG = 10**5000


class TestOverlongExponents:
    """An exponent past the int digit limit is named by its number of digits."""

    def test_str_states_the_digits(self):
        assert str(Dimension(OVERLONG)) == "[P^<integer of 5001 digits>]"
        assert str(Dimension(Fraction(-1, OVERLONG))) == (
            "[P^-1/<integer of 5001 digits>]"
        )

    def test_repr_states_the_digits(self):
        assert repr(Dimension(-OVERLONG)) == (
            "Dimension(Fraction(<negative integer of 5001 digits>, 1))"
        )

    def test_a_power_past_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError) as excinfo:
            Quantity(2.0, PAPERS) ** Fraction(OVERLONG)
        assert str(excinfo.value) == "cannot raise 2.0 to power <integer of 5001 digits>"

    def test_a_heterogeneous_sum_names_both_dimensions(self):
        with pytest.raises(HeterogeneityError) as excinfo:
            Quantity(1.0, Dimension(OVERLONG)) + Quantity(1.0, PAPERS)
        assert str(excinfo.value) == (
            "cannot add quantities of dimension [P^<integer of 5001 digits>] and [P]"
        )


class TestQuantity:
    def test_add_like_units(self):
        assert Quantity(3, PAPERS) + Quantity(4, PAPERS) == Quantity(7, PAPERS)

    def test_add_additive_identity(self):
        total = Quantity(0, PAPERS_CUBED) + Quantity(21, PAPERS_CUBED)
        assert total == Quantity(21, PAPERS_CUBED)

    def test_add_heterogeneous_raises(self):
        a = Quantity(891.42, EUCLIDEAN_DIM)
        b = Quantity(34, PAPERS)
        with pytest.raises(HeterogeneityError) as excinfo:
            a + b
        assert "[P^3/2]" in str(excinfo.value)
        assert "[P]" in str(excinfo.value)

    def test_compare_less(self):
        assert Quantity(34, PAPERS) < Quantity(41, PAPERS)
        assert not Quantity(41, PAPERS) < Quantity(34, PAPERS)

    def test_compare_equal(self):
        assert Quantity(5, PAPERS) <= Quantity(5, PAPERS)
        assert Quantity(5, PAPERS) >= Quantity(5, PAPERS)
        assert not Quantity(5, PAPERS) < Quantity(5, PAPERS)
        assert not Quantity(5, PAPERS) > Quantity(5, PAPERS)

    def test_compare_greater(self):
        assert Quantity(41, PAPERS) > Quantity(34, PAPERS)
        assert not Quantity(34, PAPERS) > Quantity(41, PAPERS)

    def test_compare_heterogeneous_raises(self):
        with pytest.raises(HeterogeneityError):
            Quantity(1462.71, EUCLIDEAN_DIM) < Quantity(7013, PAPERS_SQUARED)

    def test_ordering_operators_checked(self):
        for compare in ORDERINGS:
            with pytest.raises(HeterogeneityError) as excinfo:
                compare(Quantity(1, PAPERS), Quantity(2, PAPERS_SQUARED))
            assert str(excinfo.value) == "cannot compare quantities of dimension [P] and [P^2]"

    @pytest.mark.parametrize("compare", ORDERINGS)
    def test_ordering_against_a_non_quantity_is_a_type_error(self, compare):
        for other in (5, 5.0, None, "5", PAPERS):
            with pytest.raises(TypeError):
                compare(Quantity(1, PAPERS), other)
            with pytest.raises(TypeError):
                compare(other, Quantity(1, PAPERS))

    def test_equality_never_raises(self):
        assert Quantity(1, PAPERS) != Quantity(1, PAPERS_SQUARED)

    def test_mul_combines_dimensions(self):
        product = Quantity(3, PAPERS) * Quantity(4, PAPERS)
        assert product == Quantity(12, PAPERS_SQUARED)

    def test_div_combines_dimensions(self):
        ratio = Quantity(7, PAPERS_SQUARED) / Quantity(3, PAPERS)
        assert ratio.dim == PAPERS

    def test_scalar_mul(self):
        assert (2 * Quantity(3, PAPERS)).magnitude == 6.0

    def test_pow(self):
        q = Quantity(27, PAPERS_CUBED) ** Fraction(1, 3)
        assert q.dim == PAPERS
        assert q.magnitude == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: Dimension(x),
            lambda x: PAPERS_CUBED**x,
            lambda x: Quantity(8, PAPERS_CUBED) ** x,
        ],
        ids=["Dimension", "Dimension **", "Quantity **"],
    )
    def test_an_exponent_must_be_rational(self, build):
        # 1/3 as a float is 6004799503160661/18014398509481984, not a third.
        for bad, shown in ((1 / 3, "0.3333333333333333"), (0.5, "0.5"), ("3/2", "'3/2'")):
            with pytest.raises(DomainError) as excinfo:
                build(bad)
            assert str(excinfo.value) == f"exponent must be a rational number, got {shown}"
        assert build(Fraction(1, 3)) == build(Fraction(2, 6))
        assert build(np.int64(2)) == build(2) and build(np.int32(-1)) == build(-1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: Dimension(x),
            lambda x: PAPERS**x,
            lambda x: Quantity(4.0, PAPERS) ** x,
        ],
        ids=["Dimension", "Dimension **", "Quantity **"],
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_a_bool_is_not_an_exponent(self, build, flag):
        with pytest.raises(DomainError) as excinfo:
            build(flag)
        assert str(excinfo.value) == f"exponent must be a rational number, got {flag}"

    def test_numpy_exponents_are_read_as_python_ints(self):
        big = Dimension(np.int64(2**62))
        assert type(big.exponent.numerator) is int
        assert big * big == Dimension(2**63)  # a fixed-width sum would wrap

    @pytest.mark.parametrize("dim", [2, Fraction(3, 2), "[P]", None])
    def test_dimension_must_be_a_dimension(self, dim):
        # A bare exponent would otherwise add as a number: [P^2] + [P^2] -> 4.
        with pytest.raises(DomainError, match="quantity dimension must be a Dimension"):
            Quantity(3, dim)

    def test_magnitude_must_be_finite(self):
        with pytest.raises(DomainError):
            Quantity(float("nan"), PAPERS)
        with pytest.raises(DomainError):
            Quantity(float("inf"), PAPERS)

    @pytest.mark.parametrize(
        "magnitude", [True, False, "5", None, 1j, Decimal("5")],
        ids=["true", "false", "text", "none", "complex", "decimal"],
    )
    def test_a_bool_or_a_non_real_magnitude_is_refused_by_name(self, magnitude):
        with pytest.raises(DomainError) as excinfo:
            Quantity(magnitude, PAPERS)
        assert str(excinfo.value) == (
            f"quantity magnitude must be a real number, got {magnitude!r}"
        )

    @pytest.mark.parametrize(
        "magnitude", [5, 5.0, Fraction(5), np.int64(5), np.float64(5.0)],
        ids=["int", "float", "fraction", "numpy-int", "numpy-float"],
    )
    def test_real_magnitudes_are_held_as_floats(self, magnitude):
        quantity = Quantity(magnitude, PAPERS)
        assert type(quantity.magnitude) is float and quantity == Quantity(5.0, PAPERS)

    def test_an_int_past_the_float_range_is_refused(self):
        with pytest.raises(DomainError) as excinfo:
            Quantity(10**400)
        assert str(excinfo.value) == "quantity magnitude exceeds the floating-point range"

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "must be a real number, got True"),
            ("2", "must be a real number, got '2'"),
            (10**400, "exceeds the floating-point range"),
        ],
        ids=["bool", "text", "past-the-float-range"],
    )
    def test_a_scalar_operand_is_read_as_a_real(self, value, message):
        quantity = Quantity(2.0, PAPERS)
        for operate, name in (
            (lambda: quantity * value, "factor"),
            (lambda: value * quantity, "factor"),
            (lambda: quantity / value, "divisor"),
        ):
            with pytest.raises(DomainError) as excinfo:
                operate()
            assert str(excinfo.value) == f"quantity {name} {message}"
        assert quantity * Fraction(1, 2) == quantity / np.int64(2) == Quantity(1.0, PAPERS)

    def test_division_by_zero_quantity(self):
        with pytest.raises(DomainError):
            Quantity(1, PAPERS) / Quantity(0, PAPERS)

    def test_division_by_zero_scalar(self):
        with pytest.raises(DomainError):
            Quantity(1, PAPERS) / 0

    def test_odd_root_of_a_negative_magnitude(self):
        with pytest.raises(DomainError) as excinfo:
            Quantity(-8.0) ** Fraction(1, 3)
        assert str(excinfo.value) == "cannot raise -8.0 to power 1/3"

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            Quantity(0, PAPERS) ** Fraction(-1)

    @given(
        a=dimensions,
        b=dimensions,
        x=st.floats(-1e9, 1e9),
        y=st.floats(-1e9, 1e9),
    )
    def test_heterogeneous_add_error_path_is_total(self, a, b, x, y):
        qa, qb = Quantity(x, a), Quantity(y, b)
        if a == b:
            assert (qa + qb).dim == a
        else:
            with pytest.raises(HeterogeneityError):
                qa + qb
            with pytest.raises(HeterogeneityError):
                operator.lt(qa, qb)


class TestTextRule:
    @pytest.mark.parametrize("value", ["", "A", "Kr\u00e9bs", "\U0001f600", "a\x01b"])
    def test_text_utf8_can_encode_is_taken(self, value):
        assert text(value, "label") is value
        assert name_list([value], "names") == (value,)

    @pytest.mark.parametrize("value", ["A\ud800", "\udc00", "\ud83dx"])
    def test_a_lone_surrogate_is_refused_by_name(self, value):
        with pytest.raises(DomainError) as excinfo:
            text(value, "portfolio label")
        assert str(excinfo.value) == f"portfolio label must be UTF-8 text, got {value!r}"
        with pytest.raises(DomainError) as excinfo:
            name_list(["C", value], "matrix names")
        assert str(excinfo.value) == f"matrix names must be UTF-8 text, got {value!r}"


class TestFiniteRule:
    @pytest.mark.parametrize(
        "value, read", [(2, 2.0), (-0.5, -0.5), (Fraction(1, 4), 0.25), (np.float64(3.5), 3.5)]
    )
    def test_a_finite_real_is_read_as_an_exact_float(self, value, read):
        assert type(finite(value, "cell")) is float and finite(value, "cell") == read

    @pytest.mark.parametrize(
        "value, message",
        [
            (float("nan"), "cell must be finite, got nan"),
            (float("-inf"), "cell must be finite, got -inf"),
            (np.float64("inf"), "cell must be finite, got inf"),
            (True, "cell must be a real number, got True"),
            (10**400, "cell exceeds the floating-point range"),
        ],
    )
    def test_anything_else_is_refused_by_name(self, value, message):
        with pytest.raises(DomainError) as excinfo:
            finite(value, "cell")
        assert str(excinfo.value) == message
