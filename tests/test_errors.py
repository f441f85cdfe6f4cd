"""How error messages echo input values."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scindex.errors import _digits, shown


@pytest.fixture()
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


class TestShown:
    def test_a_short_value_is_its_repr(self):
        assert shown("ab") == "'ab'"
        assert shown(-7) == "-7"

    def test_a_long_value_is_cut_and_its_length_stated(self):
        assert shown("x" * 100) == "'" + "x" * 39 + "... (100 characters)"
        assert shown(10**50) == "1" + "0" * 39 + "... (51 characters)"

    @pytest.mark.parametrize(
        "value, text",
        [
            (10**5000, "<integer of 5001 digits>"),
            (-(10**5000), "<negative integer of 5001 digits>"),
            (10**5000 - 1, "<integer of 5000 digits>"),
        ],
        ids=["10^5000", "-10^5000", "10^5000-1"],
    )
    def test_an_int_past_the_digit_limit_states_its_digits(self, value, text):
        assert shown(value) == text

    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(1, 10**5000), "Fraction(1, <integer of 5001 digits>)"),
            ([4, 10**5000], "[4, <integer of 5001 digits>]"),
            ((0, -(10**5000)), "(0, <negative integer of 5001 digits>)"),
            (
                Fraction(10**5000 + 1, 10**5000),
                "Fraction(<integer of 5001 digits>, <inte... (60 characters)",
            ),
        ],
        ids=["fraction", "list", "tuple", "long"],
    )
    def test_an_int_past_the_digit_limit_inside_a_value_states_its_digits(self, value, text):
        assert shown(value) == text


class TestDigits:
    @given(n=st.integers(1, 10**4000))
    def test_counts_the_digits_of_any_int(self, n):
        assert _digits(n) == len(str(n))

    @pytest.mark.parametrize("k", [1, 2, 3, 15, 16, 17, 308, 309, 4299, 4300, 4301, 10**4])
    def test_powers_of_ten_and_their_predecessors(self, k):
        assert _digits(10**k - 1) == k
        assert _digits(10**k) == k + 1

    # Denominators of convergents of log10(2): m*log10(2) comes closest to
    # an integer there, from above or below, where a misjudged floor of it
    # would miscount.
    @pytest.mark.parametrize("m", [10, 93, 196, 485, 2136, 13301, 28738, 42039, 70777])
    def test_powers_of_two_near_a_power_of_ten(self, m, no_digit_limit):
        for n in (2**m - 1, 2**m, 2**m + 1, 2 ** (m + 1) - 1):
            assert _digits(n) == len(str(n))
