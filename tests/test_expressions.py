"""Dimension-expression parsing, printing and evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scindex import (
    DIMENSIONLESS,
    PAPERS,
    PAPERS_SQUARED,
    HeterogeneityError,
    ParseError,
    Power,
    Product,
    Quotient,
    Sum,
    Symbol,
    UnknownSymbolError,
    compute_all,
    dimension_of,
    eval_dim_expr,
    format_dim_expr,
    parse_dim_expr,
    registry_symbols,
)

SYMBOLS = registry_symbols()


class TestParsing:
    def test_two_token_quotient(self):
        assert parse_dim_expr("C/P") == Quotient(Symbol("C"), Symbol("P"))

    def test_z_formula_shape(self):
        tree = parse_dim_expr("(eta*i^2*P)^(1/3)")
        expected = Power(
            Product(Product(Symbol("eta"), Power(Symbol("i"), Fraction(2))), Symbol("P")),
            Fraction(1, 3),
        )
        assert tree == expected

    def test_double_plus_is_an_error_at_second_plus(self):
        with pytest.raises(ParseError) as excinfo:
            parse_dim_expr("i_E + + h")
        assert excinfo.value.position == 6
        assert "expected" in str(excinfo.value)
        assert "position 6" in str(excinfo.value)

    def test_error_reports_expected_tokens(self):
        with pytest.raises(ParseError) as excinfo:
            parse_dim_expr("C/")
        assert excinfo.value.position == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_dim_expr("(C/P")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as excinfo:
            parse_dim_expr("C P")
        assert excinfo.value.position == 2

    def test_stray_character(self):
        with pytest.raises(ParseError) as excinfo:
            parse_dim_expr("C $ P")
        assert excinfo.value.position == 2

    def test_number_cannot_stand_alone(self):
        with pytest.raises(ParseError):
            parse_dim_expr("3*P")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_dim_expr("E^(1/0)")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "P^2^(1/2)",
                "expected an integer exponent in an exponent tower at position 8, found '1/2'",
            ),
            ("P^x", "expected an integer, '-' or '(' at position 2, found 'x'"),
        ],
        ids=["fraction-in-tower", "symbol-exponent"],
    )
    def test_an_exponent_must_be_a_number(self, text, message):
        with pytest.raises(ParseError) as excinfo:
            parse_dim_expr(text)
        assert str(excinfo.value) == message

    def test_power_binds_tighter_than_product(self):
        tree = parse_dim_expr("eta*i^2")
        assert tree == Product(Symbol("eta"), Power(Symbol("i"), Fraction(2)))

    def test_product_binds_tighter_than_sum(self):
        tree = parse_dim_expr("h+C/P")
        assert tree == Sum(Symbol("h"), Quotient(Symbol("C"), Symbol("P")))

    def test_left_associative_quotient(self):
        tree = parse_dim_expr("E/P/P")
        assert tree == Quotient(Quotient(Symbol("E"), Symbol("P")), Symbol("P"))

    def test_power_tower_is_right_associative(self):
        assert parse_dim_expr("P^2^3") == Power(Symbol("P"), Fraction(8))

    def test_negative_exponent(self):
        assert parse_dim_expr("P^-1") == Power(Symbol("P"), Fraction(-1))

    def test_parenthesized_negative_fraction_exponent(self):
        assert parse_dim_expr("P^(-3/2)") == Power(Symbol("P"), Fraction(-3, 2))


class TestPrinting:
    def test_round_trips_the_z_formula_text(self):
        text = "(eta*i^2*P)^(1/3)"
        assert format_dim_expr(parse_dim_expr(text)) == text

    def test_simple_quotient_text(self):
        assert format_dim_expr(parse_dim_expr("C/P")) == "C/P"

    def test_parenthesizes_right_nested_quotient(self):
        tree = Quotient(Symbol("E"), Product(Symbol("P"), Symbol("P")))
        assert format_dim_expr(tree) == "E/(P*P)"


def _short(value):
    return f"{value[:12]}..{len(value)}" if isinstance(value, str) and len(value) > 20 else None


class TestBounds:
    @pytest.mark.parametrize(
        "text, position",
        [
            ("P^(2^2^2^2^2^2)", 6),  # 2^65536 is refused before it is computed
            ("P^(2^2^2^2^2)", 4),
            ("P^(3^9999999)", 4),
            ("P^(2^30)", 4),
            ("P^(-3)^19", 6),
            ("P^(1/2)^30", 7),
            ("P^1000000000", 2),
            ("P^(1/1000000000)", 5),
            ("P^0^-1", 3),
            ("P^1" + "0" * 5000, 1000),
            ("P" + "+P" * 499 + "  ", 1000),
            ("(" * 51 + "P" + ")" * 51, 50),
            ("P^(" + "(" * 50 + "1" + ")" * 51, 52),
            ("(" * 600 + "P" + ")" * 600, 1000),
            ("(" * 300 + "P" + ")" * 300, 50),
            ("+".join(["P"] * 5000), 1000),
            ("P^\u0662", 2),  # ARABIC-INDIC DIGIT TWO
            ("P^(1/\uff13)", 5),  # FULLWIDTH DIGIT THREE
        ],
        ids=_short,
    )
    def test_breach_is_a_parse_error_with_a_position(self, text, position):
        with pytest.raises(ParseError) as excinfo:
            parse_dim_expr(text)
        assert excinfo.value.position == position

    @pytest.mark.parametrize(
        "text, dimension",
        [
            ("P" + "+P" * 499 + " ", "[P]"),  # 1,000 characters
            ("P^" + "^".join(["1"] * 499), "[P]"),  # a 499-level tower
            ("(" * 50 + "P" + ")" * 50, "[P]"),
            ("P^(" + "(" * 49 + "1" + ")" * 50, "[P]"),
            ("P^999999999", "[P^999999999]"),
            ("P^(-1/999999999)", "[P^-1/999999999]"),
            ("P^(2^29)", "[P^536870912]"),
            ("P^(-3)^18", "[P^387420489]"),
            ("P^(1/2)^-29", "[P^536870912]"),
            ("P^(1^99999999)", "[P]"),
            ("(" * 50 + "P" + ")^999999999" * 50, "[P^" + str(999999999**50) + "]"),
        ],
        ids=_short,
    )
    def test_expression_at_a_bound_evaluates_and_prints(self, text, dimension):
        assert len(text) <= 1000
        assert str(dimension_of(text, SYMBOLS)) == dimension
        assert dimension_of(format_dim_expr(parse_dim_expr(text)), SYMBOLS) == dimension_of(
            text, SYMBOLS
        )


names = st.sampled_from(["P", "C", "i", "h", "eta", "i_E", "z", "S", "x1", "y_2"])
leaves = st.builds(Symbol, names)
powers = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def _extend(children):
    return st.one_of(
        st.builds(Sum, children, children),
        st.builds(Product, children, children),
        st.builds(Quotient, children, children),
        st.builds(Power, children, powers),
    )


trees = st.recursive(leaves, _extend, max_leaves=12)


@given(tree=trees)
def test_parse_print_parse_round_trips(tree):
    assert parse_dim_expr(format_dim_expr(tree)) == tree


class TestEvaluation:
    def test_quotient(self):
        symbols = {"C": PAPERS_SQUARED, "P": PAPERS}
        assert dimension_of("C/P", symbols) == PAPERS

    def test_z_formula(self):
        symbols = {"eta": DIMENSIONLESS, "i": PAPERS, "P": PAPERS}
        assert dimension_of("(eta*i^2*P)^(1/3)", symbols) == PAPERS

    def test_heterogeneous_sum_raises(self):
        with pytest.raises(HeterogeneityError) as excinfo:
            dimension_of("i_E + h", SYMBOLS)
        message = str(excinfo.value)
        assert "[P^3/2]" in message and "[P]" in message

    def test_homogeneous_sum_allowed(self):
        assert dimension_of("h + z + i", SYMBOLS) == PAPERS

    @given(counts=st.lists(st.integers(0, 10**4), min_size=1, max_size=60).filter(any))
    def test_formulas_evaluate_over_a_report(self, counts):
        report = compute_all(counts)
        for formula, name in (("C/P", "i"), ("(eta*i^2*P)^(1/3)", "z"), ("E^(1/2)", "i_E")):
            value = eval_dim_expr(parse_dim_expr(formula), report)
            expected = report[name]
            assert value.dim == expected.dim == SYMBOLS[name]
            assert abs(value.magnitude - expected.magnitude) <= 4 * math.ulp(expected.magnitude)

    def test_heterogeneous_sum_reads_alike_over_values_and_dimensions(self):
        tree = parse_dim_expr("h+i_E")
        messages = []
        for symbols in (SYMBOLS, compute_all([4, 2, 1])):
            with pytest.raises(HeterogeneityError) as excinfo:
                eval_dim_expr(tree, symbols)
            messages.append(str(excinfo.value))
        assert messages == ["cannot add quantities of dimension [P] and [P^3/2]"] * 2

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError) as excinfo:
            dimension_of("C/Q", SYMBOLS)
        assert excinfo.value.name == "Q"

    def test_eval_needs_all_leaves_resolved(self):
        tree = parse_dim_expr("i_E")
        with pytest.raises(UnknownSymbolError):
            eval_dim_expr(tree, {})

    def test_published_dimension_row(self):
        # The seven column formulas of the reference table, in column order.
        formulas = {
            "P": "P",
            "i": "C/P",
            "eta": "X/E",
            "h": "h",
            "z": "(eta*i^2*P)^(1/3)",
            "i_E": "E^(1/2)",
            "C": "i*P",
        }
        rendered = [str(dimension_of(f, SYMBOLS)) for f in formulas.values()]
        assert rendered == [
            "[P]",
            "[P]",
            "dimensionless",
            "[P]",
            "[P]",
            "[P^3/2]",
            "[P^2]",
        ]
