"""Summary reconstruction, correlation matrices and ranking."""

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scindex import (
    AnalyticsTable,
    CitationVector,
    DomainError,
    EmptyPortfolioError,
    HeterogeneityError,
    PortfolioSummary,
    Quantity,
    UnknownIndicatorError,
    ZeroVarianceError,
    compute_all,
    emit_records,
    pearson_matrix,
    rank_by,
    reconstruct_from_summary,
)
from scindex.analytics import RECONSTRUCTED_COLUMNS, _check_summary, _summaries_pass
from scindex.datasets import AUTHOR_COLUMNS, AUTHOR_ROWS, published_table, reconstructed_table
from scindex.dimension import PAPERS, PAPERS_SQUARED, Dimension
from scindex.errors import shown
from scindex.indicators import VECTOR_LAYOUT

from oracles import ladder_row

# What follows the first digit of an int echoed cut to 40 characters, and
# an int past the 4,300-digit limit of its repr.
_ZEROS = "0" * 39
_HUGE = 10**5000


def _toy_table(columns, rows):
    labeled = [
        (label, {name: Quantity(value, PAPERS) for name, value in zip(columns, values)})
        for label, values in rows
    ]
    return AnalyticsTable.from_reports(labeled, columns=columns)


class TestReconstruction:
    def test_high_impact_author_row(self):
        report = reconstruct_from_summary(78, 128.65, 0.12)
        assert report["C"].magnitude == pytest.approx(10034.7, rel=1e-12)
        assert report["i_E"].magnitude == pytest.approx(3279.94, abs=0.01)
        assert report["z"].magnitude == pytest.approx(53.71, abs=0.01)
        # Printed values (10035, 3281.34, 53.69) differ only by the
        # two-decimal rounding of i and eta.
        assert report["C"].magnitude == pytest.approx(10035, abs=1)
        assert report["i_E"].magnitude == pytest.approx(3281.34, rel=0.02)
        assert report["z"].magnitude == pytest.approx(53.69, rel=0.01)

    def test_balanced_author_row(self):
        report = reconstruct_from_summary(45, 48.71, 0.42)
        assert report["C"].magnitude == pytest.approx(2191.95, rel=1e-12)
        assert report["i_E"].magnitude == pytest.approx(504.2, abs=0.05)
        assert report["z"].magnitude == pytest.approx(35.53, abs=0.01)

    def test_single_paper_algebra(self):
        c = 17.0
        report = reconstruct_from_summary(1, c, 1.0)
        assert report["C"].magnitude == pytest.approx(c)
        assert report["i_E"].magnitude == pytest.approx(c)
        assert report["z"].magnitude == pytest.approx(c ** (2 / 3), rel=1e-12)

    def test_h_not_derivable(self):
        assert "h" not in reconstruct_from_summary(10, 5.0, 0.5)

    def test_dimensions(self):
        report = reconstruct_from_summary(10, 5.0, 0.5)
        rendered = {name: str(q.dim) for name, q in report.items()}
        assert rendered == {
            "P": "[P]",
            "C": "[P^2]",
            "i": "[P]",
            "X": "[P^3]",
            "E": "[P^3]",
            "S": "[P^3]",
            "eta": "dimensionless",
            "z": "[P]",
            "i_E": "[P^3/2]",
        }

    @pytest.mark.parametrize(
        "papers, impact, evenness",
        [(10, 5.0, 0.0), (10, 5.0, 1.5), (10, 5.0, -0.2), (0, 5.0, 0.5), (10, -1.0, 0.5)],
    )
    def test_domain_errors(self, papers, impact, evenness):
        with pytest.raises(DomainError):
            reconstruct_from_summary(papers, impact, evenness)

    @given(
        papers=st.integers(1, 500),
        impact=st.floats(0.01, 500),
        evenness=st.floats(0.01, 1.0),
    )
    def test_forward_check_returns_evenness(self, papers, impact, evenness):
        report = reconstruct_from_summary(papers, impact, evenness)
        ratio = report["X"].magnitude / report["E"].magnitude
        assert ratio == pytest.approx(evenness, rel=1e-12)

    @given(
        papers=st.integers(1, 500),
        impact=st.floats(0, 500),
        evenness=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    )
    def test_summary_triple_passes_through(self, papers, impact, evenness):
        report = reconstruct_from_summary(papers, impact, evenness)
        assert report["i"].magnitude == impact
        assert report["eta"].magnitude == evenness
        if evenness == 1.0:
            assert report["S"].magnitude == 0.0

    @given(
        v=st.lists(st.integers(0, 100), min_size=1, max_size=30).filter(
            lambda counts: any(counts)
        )
    )
    @settings(max_examples=300)
    def test_agrees_with_direct_computation(self, v):
        direct = compute_all(v)
        report = reconstruct_from_summary(
            int(direct["P"].magnitude),
            direct["i"].magnitude,
            direct["eta"].magnitude,
        )
        for name in ("C", "X", "E", "z", "i_E"):
            assert report[name].magnitude == pytest.approx(
                direct[name].magnitude, rel=1e-9
            ), name
        assert report["S"].magnitude == pytest.approx(
            direct["S"].magnitude, rel=1e-9, abs=1e-9
        )

    def test_uniform_vector_round_trip_keeps_entropy_zero(self):
        direct = compute_all([7, 7, 7])
        report = reconstruct_from_summary(3, direct["i"].magnitude, direct["eta"].magnitude)
        assert report["S"].magnitude == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rows_are_exact_floats_equal_to_the_converted_ladder(self, data):
        """A summary's values reach the ladder as floats, whatever numeric
        type each is given as: every value of the row is an exact float,
        equal to the ladder of the converted values with every value
        converted again, or a DomainError where one is not finite."""
        p = data.draw(st.integers(1, 10**6), "P")
        papers = data.draw(st.sampled_from([p, float(p), np.int64(p)]), "papers")

        def typed(floats, ints):
            return st.one_of(ints, floats, floats.map(Fraction), floats.map(np.float64))

        impact = data.draw(typed(st.floats(0, 1e300), st.integers(0, 10**6)), "impact")
        evenness = data.draw(typed(st.floats(1e-300, 1), st.just(1)), "evenness")
        h = data.draw(st.none() | typed(st.floats(0, p), st.integers(0, p)), "h")
        i, eta = float(impact), float(evenness)
        x = i * i * p
        e = x / eta
        expected = ladder_row(p, i * p, i, x, e, e - x, eta, h)
        builds = [
            lambda: reconstruct_from_summary(papers, impact, evenness, h),
            lambda: PortfolioSummary.from_summary("a", papers, impact, evenness, h).report(),
        ]
        for build in builds:
            if not all(map(math.isfinite, expected)):
                with pytest.raises(DomainError, match="quantity magnitude must be finite"):
                    build()
                continue
            row = build().row
            assert row == expected
            assert {type(value) for value in row} == {float}


# Summary fields typed as the readers convert them: an int P and float i,
# eta and h, with the boundaries of each rule and of float arithmetic drawn
# often: nan, infinities, signed zeros, subnormals and 2**53 +- 1.
_EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.0, 1.0 - 2**-53, 1.0 + 2**-52, 3.0, sys.float_info.max,
    float(2**53 - 1), float(2**53), float(2**53 + 2),
]
_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(-0.5, 1.5), st.floats(-4, 200), st.floats()
)
_papers = st.one_of(
    st.integers(-1, 100),
    st.integers(-3, 2**64),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, int(sys.float_info.max), 10**309]),
)
_summary_rows = st.tuples(_papers, _floats, _floats, st.one_of(st.none(), _floats))
# Rows near the bounds, so that a list of them often passes every rule but one.
_near_rows = st.tuples(
    st.integers(0, 10),
    st.floats(-0.5, 10),
    st.floats(0, 1.5),
    st.one_of(st.none(), st.floats(-1, 12)),
)


def _accepted(row):
    try:
        _check_summary(*row)
    except DomainError:
        return False
    return True


class TestSummaryRule:
    """The column form of the summary rule, ``_summaries_pass``, against its
    row form, ``_check_summary``."""

    @given(row=_summary_rows)
    @settings(derandomize=True, max_examples=600, deadline=None)
    @example(row=(3, 2.0, 0.5, None))
    @example(row=(2**53 + 1, 0.0, 1.0, float(2**53 + 2)))
    def test_one_row_passes_the_columns_exactly_when_it_passes_the_row_rule(self, row):
        assert _summaries_pass(*([field] for field in row)) == _accepted(row)

    @given(rows=st.lists(st.one_of(_summary_rows, _near_rows), min_size=1, max_size=6))
    @settings(derandomize=True, max_examples=300, deadline=None)
    @example(rows=[(3, 2.0, 0.5, None), (4, 1.0, 1.0, 2.0), (5, 0.0, 0.5, None)])
    @example(rows=[(3, 2.0, 0.5, None), (4, 1.0, 1.0, 5.0)])
    def test_rows_that_pass_the_columns_each_pass_the_row_rule(self, rows):
        if _summaries_pass(*map(list, zip(*rows))):
            assert all(map(_accepted, rows))

    def test_a_column_sum_past_the_float_range_fails_rows_that_pass(self):
        # Such a file is read again row by row, which accepts it.
        rows = [(3, impact, 0.5, None) for impact in (1e308, 1e308, 1.0)]
        assert all(map(_accepted, rows))
        assert not _summaries_pass(*map(list, zip(*rows)))


class TestPortfolioSummary:
    def test_exactly_one_source_form(self):
        with pytest.raises(DomainError):
            PortfolioSummary("both", vector=None, papers=None)

    def test_a_partial_summary_is_refused(self):
        with pytest.raises(DomainError) as excinfo:
            PortfolioSummary("a", papers=3)
        assert str(excinfo.value) == "summary form needs papers, impact and evenness"

    def test_summary_invariants(self):
        with pytest.raises(DomainError):
            PortfolioSummary.from_summary("bad", 10, 5.0, 2.0)

    @pytest.mark.parametrize("label", [1, None, b"a", ("a",), _HUGE], ids=shown)
    def test_a_label_that_is_no_string_is_refused(self, label):
        message = f"portfolio label must be a string, got {shown(label)}"
        reports = [(label, compute_all([4, 2, 1]))]
        for build in (
            lambda: PortfolioSummary(label, CitationVector([1, 2])),
            lambda: PortfolioSummary.from_summary(label, 10, 2.0, 0.5),
            lambda: AnalyticsTable.from_reports(reports),
        ):
            with pytest.raises(DomainError) as excinfo:
                build()
            assert str(excinfo.value) == message

    def test_a_vector_is_held_as_a_citation_vector(self):
        record = PortfolioSummary("A", [4, 2, 1])
        assert type(record.vector) is CitationVector
        assert record == PortfolioSummary("A", CitationVector([4, 2, 1]))
        assert hash(record) == hash(PortfolioSummary("A", CitationVector((1, 2, 4))))
        assert emit_records([record]) == 'author,citations\nA,4;2;1\n'

    @pytest.mark.parametrize(
        "vector, message",
        [
            (5, "portfolio 'A' vector must be a list of counts, got 5"),
            (2.5, "portfolio 'A' vector must be a list of counts, got 2.5"),
            ([4, True], "citation counts must be integers, got True"),
            ("42", "citation counts must be integers, got '4'"),
        ],
        ids=shown,
    )
    def test_a_vector_that_is_no_list_of_counts_is_refused(self, vector, message):
        with pytest.raises(DomainError) as excinfo:
            PortfolioSummary("A", vector)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("vector", [[], (), CitationVector([])], ids=repr)
    def test_an_empty_vector_is_refused_by_name(self, vector):
        with pytest.raises(EmptyPortfolioError) as excinfo:
            PortfolioSummary("a", vector)
        assert str(excinfo.value) == "portfolio 'a' has no papers"

    def test_raw_report_has_no_reconstructed_columns(self):
        record = PortfolioSummary("a", CitationVector([4, 2, 1]))
        report = record.report()
        assert AnalyticsTable.from_portfolios([record]).reconstructed == (frozenset(),)
        assert "h" in report and "g" in report

    def test_summary_report_flags_derived_columns(self):
        record = PortfolioSummary.from_summary("a", 10, 5.0, 0.5, h=4)
        report = record.report()
        assert AnalyticsTable.from_portfolios([record]).reconstructed == (RECONSTRUCTED_COLUMNS,)
        assert RECONSTRUCTED_COLUMNS == frozenset({"C", "X", "E", "S", "z", "i_E"})
        assert report["h"].magnitude == 4.0
        assert tuple(report) == ("P", "C", "i", "h", "X", "E", "S", "eta", "z", "i_E")
        assert report["h"] == Quantity(4.0, PAPERS)

    def test_paper_count_beyond_float_range(self):
        with pytest.raises(DomainError) as excinfo:
            PortfolioSummary.from_summary("a", 10**400, 2.0, 0.5)
        assert str(excinfo.value) == "paper count exceeds the floating-point range"

    @pytest.mark.parametrize("papers", [3.7, True, float("inf"), float("nan"), "3", Fraction(3)])
    def test_paper_count_must_be_an_integer(self, papers):
        with pytest.raises(DomainError) as excinfo:
            PortfolioSummary.from_summary("A", papers, 2.0, 0.5)
        assert str(excinfo.value) == f"paper counts must be integers, got {papers!r}"

    @pytest.mark.parametrize("papers", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integral_paper_counts_are_ints(self, papers):
        record = PortfolioSummary.from_summary("A", papers, 2.0, 0.5)
        assert type(record.papers) is int and record.papers == 3

    def test_constructor_and_reconstruction_refuse_a_fractional_p(self):
        with pytest.raises(DomainError, match="paper counts must be integers, got 3.7"):
            PortfolioSummary("A", papers=3.7, impact=2.0, evenness=0.5)
        with pytest.raises(DomainError, match="paper counts must be integers, got 2.5"):
            reconstruct_from_summary(2.5, 1.0, 0.5)

    def test_a_negative_zero_impact_or_h_is_held_as_zero(self):
        summary = PortfolioSummary("A", papers=3, impact=-0.0, evenness=0.5, h=-0.0)
        assert repr(summary.impact) == repr(summary.h) == "0.0"
        row = reconstruct_from_summary(3, -0.0, 0.5, -0.0).magnitudes
        assert [repr(row[name]) for name in ("C", "i", "h")] == ["0.0"] * 3

    @pytest.mark.parametrize("h", [-4, -1e-300, 3.5, 10])
    def test_h_must_lie_in_zero_to_p(self, h):
        with pytest.raises(DomainError) as excinfo:
            PortfolioSummary.from_summary("A", 3, 2.0, 0.5, h=h)
        assert str(excinfo.value) == f"h must lie in [0, P], got {float(h)} with P = 3"

    def test_non_finite_h_reads_as_before(self):
        with pytest.raises(DomainError, match="^h must be finite, got nan$"):
            PortfolioSummary.from_summary("A", 3, 2.0, 0.5, h=float("nan"))

    def test_long_label_is_cut(self):
        record = PortfolioSummary.from_summary("A" * 100, 10**300, 1e10, 0.5)
        with pytest.raises(DomainError) as excinfo:
            record.report()
        assert str(excinfo.value) == (
            f"portfolio '{'A' * 39}... (100 characters): quantity magnitude must be finite, got inf"
        )

    def test_overflowing_summary_names_portfolio(self):
        record = PortfolioSummary.from_summary("A", 10**300, 1e10, 0.5)
        with pytest.raises(DomainError) as excinfo:
            record.report()
        assert str(excinfo.value) == (
            "portfolio 'A': quantity magnitude must be finite, got inf"
        )

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PortfolioSummary.from_summary("a", 10, 10**400, 0.5), "mean impact"),
            (lambda: PortfolioSummary.from_summary("a", 10, 2.0, 10**400), "evenness"),
            (lambda: PortfolioSummary.from_summary("a", 10, 2.0, 0.5, h=10**400), "h"),
            (lambda: PortfolioSummary("a", papers=10, impact=10**400, evenness=0.5), "mean impact"),
            (lambda: PortfolioSummary("a", papers=10, impact=2.0, evenness=0.5, h=10**400), "h"),
            (lambda: PortfolioSummary("a", papers=10, impact=2.0, evenness=0.5, h=-10**400), "h"),
            (lambda: reconstruct_from_summary(10, 10**400, 0.5), "mean impact"),
        ],
        ids=["from_summary-i", "from_summary-eta", "from_summary-h", "constructor-i",
             "constructor-h", "constructor-negative-h", "reconstruct-i"],
    )
    def test_a_value_past_the_float_range_is_a_domain_error(self, build, message):
        with pytest.raises(DomainError) as excinfo:
            build()
        assert str(excinfo.value) == f"{message} exceeds the floating-point range"

    @pytest.mark.parametrize(
        "summary, message",
        [
            ((-_HUGE, 2.0, 0.5), "paper count must be >= 1, got <negative integer of 5001 digits>"),
            ((10, -_HUGE, 0.5), "mean impact exceeds the floating-point range"),
            ((10, 2.0, _HUGE), "evenness exceeds the floating-point range"),
            ((10, 2.0, 10**401), "evenness exceeds the floating-point range"),
            ((10, -10**50, 0.5), "mean impact must be >= 0, got -1e+50"),
            ((10, -3, 0.5), "mean impact must be >= 0, got -3.0"),
            ((10, 2.0, 2), "evenness must lie in (0, 1], got 2.0"),
        ],
        ids=["P-past-digit-limit", "i-past-digit-limit", "eta-past-digit-limit", "eta-402-digits",
             "i-52-characters", "i-short-int", "eta-short-int"],
    )
    def test_a_refused_int_is_echoed_cut(self, summary, message):
        papers, impact, evenness = summary
        with pytest.raises(DomainError) as excinfo:
            PortfolioSummary("a", papers=papers, impact=impact, evenness=evenness)
        assert str(excinfo.value) == message
        with pytest.raises(DomainError) as excinfo:
            reconstruct_from_summary(papers, impact, evenness)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "h, papers, message",
        [
            (10**50, 10, "h must lie in [0, P], got 1e+50 with P = 10"),
            (-1, 10**60, f"h must lie in [0, P], got -1.0 with P = 1{_ZEROS}... (61 characters)"),
            (-1.5, 10, "h must lie in [0, P], got -1.5 with P = 10"),
        ],
        ids=["h-51-digits", "P-61-digits", "h-float"],
    )
    def test_a_refused_h_and_its_p_are_echoed_cut(self, h, papers, message):
        with pytest.raises(DomainError) as excinfo:
            PortfolioSummary("a", papers=papers, impact=2.0, evenness=0.5, h=h)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "summary, message",
        [
            ((10, -1.5, 0.5), "mean impact must be >= 0, got -1.5"),
            ((10, np.float64(-1.5), 0.5), "mean impact must be >= 0, got -1.5"),
            ((10, np.float64("inf"), 0.5), "mean impact must be finite, got inf"),
            ((10, 2.0, np.float64(1.5)), "evenness must lie in (0, 1], got 1.5"),
            ((10, 2.0, np.float32(0.0)), "evenness must lie in (0, 1], got 0.0"),
            ((10, np.int64(-3), 0.5), "mean impact must be >= 0, got -3.0"),
            ((np.int64(-3), 2.0, 0.5), "paper count must be >= 1, got -3"),
        ],
    )
    def test_refused_floats_and_numpy_scalars_read_as_before(self, summary, message):
        papers, impact, evenness = summary
        with pytest.raises(DomainError) as excinfo:
            PortfolioSummary("a", papers=papers, impact=impact, evenness=evenness)
        assert str(excinfo.value) == message
        with pytest.raises(DomainError) as excinfo:
            reconstruct_from_summary(papers, impact, evenness)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("value", [True, False, "5", Decimal("0.5"), 1j])
    @pytest.mark.parametrize("field", ["mean impact", "evenness", "h"])
    def test_a_bool_or_a_non_real_field_is_refused_by_name(self, field, value):
        impact, evenness, h = {"mean impact": 2.0, "evenness": 0.5, "h": 3.0, field: value}.values()
        message = f"^{re.escape(field)} must be a real number, got {re.escape(shown(value))}$"
        builds = [
            lambda: PortfolioSummary("a", None, 10, impact, evenness, h),
            lambda: PortfolioSummary.from_summary("a", 10, impact, evenness, h),
        ]
        if field != "h":
            builds.append(lambda: reconstruct_from_summary(10, impact, evenness))
        for build in builds:
            with pytest.raises(DomainError, match=message):
                build()

    @pytest.mark.parametrize("impact", [2, Fraction(5, 2), np.float32(2.5), np.int64(2)])
    def test_real_fields_of_other_types_are_taken(self, impact):
        record = PortfolioSummary("a", papers=10, impact=impact, evenness=0.5, h=impact)
        assert record.report()["C"].magnitude == pytest.approx(float(impact) * 10)
        assert PortfolioSummary.from_summary("a", 10, impact, 0.5).impact == float(impact)


class TestPearson:
    def test_perfect_linearity(self):
        table = _toy_table(("x", "y"), [("a", (1, 2)), ("b", (2, 4)), ("c", (3, 6))])
        matrix = pearson_matrix(table, ("x", "y"))
        assert matrix[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anti_linearity(self):
        table = _toy_table(("x", "y"), [("a", (1, 3)), ("b", (2, 2)), ("c", (3, 1))])
        matrix = pearson_matrix(table, ("x", "y"))
        assert matrix[0][1] == pytest.approx(-1.0, abs=1e-12)

    def test_published_p_h_coefficient(self):
        matrix = pearson_matrix(published_table(), ("P", "h"))
        assert matrix[0][1] == pytest.approx(0.74, abs=0.02)

    def test_symmetric_with_unit_diagonal(self):
        table = published_table()
        matrix = pearson_matrix(table, AUTHOR_COLUMNS)
        assert np.array_equal(np.diag(matrix), np.ones(len(AUTHOR_COLUMNS)))
        assert np.max(np.abs(matrix - np.transpose(matrix))) <= 1e-12

    @pytest.mark.parametrize(
        "columns, message",
        [
            ("Ph", "columns must be a list of names, got 'Ph'"),
            (3, "columns must be a list of names, got 3"),
            (["P", 3], "columns must be strings, got 3"),
        ],
    )
    def test_columns_must_be_a_list_of_names(self, columns, message):
        with pytest.raises(DomainError) as excinfo:
            pearson_matrix(published_table(), columns)
        assert str(excinfo.value) == message

    def test_zero_variance_names_column(self):
        table = _toy_table(("x", "y"), [("a", (1, 5)), ("b", (2, 5)), ("c", (3, 5))])
        with pytest.raises(ZeroVarianceError) as excinfo:
            pearson_matrix(table, ("x", "y"))
        assert excinfo.value.column == "y"

    def test_needs_three_rows(self):
        table = _toy_table(("x", "y"), [("a", (1, 2)), ("b", (2, 4))])
        with pytest.raises(DomainError):
            pearson_matrix(table, ("x", "y"))

    @given(data=st.data(), rows=st.integers(3, 20), width=st.integers(1, 6))
    @settings(max_examples=200)
    def test_matches_numpy_corrcoef(self, data, rows, width):
        # Columns span at least 1 within +-100, so r is well conditioned.
        column = st.lists(st.floats(-100, 100), min_size=rows, max_size=rows).filter(
            lambda values: max(values) - min(values) >= 1
        )
        columns = [data.draw(column) for _ in range(width)]
        names = tuple(f"c{k}" for k in range(width))
        table = _toy_table(
            names, [(f"r{j}", tuple(col[j] for col in columns)) for j in range(rows)]
        )
        matrix = pearson_matrix(table, names)
        assert isinstance(matrix, tuple) and all(isinstance(row, tuple) for row in matrix)
        reference = np.atleast_2d(np.corrcoef(columns))
        assert np.max(np.abs(np.array(matrix) - reference)) <= 1e-12

    @given(data=st.data(), rows=st.integers(3, 20))
    @settings(max_examples=200)
    def test_every_r_lies_in_the_unit_interval(self, data, rows):
        # Proportional columns have r = +-1 exactly, which rounded sums can pass.
        base = data.draw(
            st.lists(st.integers(0, 10**6), min_size=rows, max_size=rows).filter(
                lambda values: len(set(values)) > 1
            )
        )
        scale = st.floats(-1e3, 1e3).filter(lambda factor: abs(factor) >= 1e-3)
        factors = data.draw(st.lists(scale, min_size=1, max_size=4))
        other = data.draw(
            st.lists(st.floats(-100, 100), min_size=rows, max_size=rows).filter(
                lambda values: max(values) - min(values) >= 1
            )
        )
        columns = [base, *([factor * v for v in base] for factor in factors), other]
        names = tuple(f"c{k}" for k in range(len(columns)))
        table = _toy_table(
            names, [(f"r{j}", tuple(col[j] for col in columns)) for j in range(rows)]
        )
        assert all(-1.0 <= r <= 1.0 for row in pearson_matrix(table, names) for r in row)

    @given(
        data=st.data(),
        rows=st.integers(3, 20),
        width=st.integers(2, 5),
        power=st.integers(-990, 980),
    )
    @settings(max_examples=200)
    def test_a_power_of_two_scale_changes_no_bit_of_r(self, data, rows, width, power):
        # Magnitudes from 1e-8 (about 2**-27) to 1e12 (about 2**40), or 0, so
        # every scaled value stays a finite normal double and the scale is
        # exact, while their squares may leave the float range.
        value = st.floats(-1e12, 1e12).filter(lambda v: v == 0 or abs(v) >= 1e-8)
        column = st.lists(value, min_size=rows, max_size=rows).filter(
            lambda values: min(values) != max(values)
        )
        columns = [data.draw(column) for _ in range(width)]
        scaled = data.draw(st.integers(0, width - 1))
        names = tuple(f"c{k}" for k in range(width))

        def table(factor):
            cols = [
                [math.ldexp(v, factor) for v in col] if k == scaled else col
                for k, col in enumerate(columns)
            ]
            return _toy_table(names, [(f"r{j}", tuple(c[j] for c in cols)) for j in range(rows)])

        assert pearson_matrix(table(power), names) == pearson_matrix(table(0), names)


class TestRanking:
    def test_rank_by_paper_count(self):
        order = rank_by(published_table(), "P")
        assert order[0] == "LI YF"
        assert order[1] == "KREBS FC"

    def test_rank_by_total_citations(self):
        assert rank_by(published_table(), "C")[0] == "YANG Y"

    def test_ties_break_lexicographically(self):
        table = _toy_table(("x",), [("beta", (7,)), ("alpha", (7,)), ("gamma", (9,))])
        assert rank_by(table, "x") == ["gamma", "alpha", "beta"]

    def test_unknown_indicator(self):
        with pytest.raises(UnknownIndicatorError):
            rank_by(published_table(), "nope")

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_rank_invariant_under_monotone_rescaling(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.1, 50.0, size=6)
        rows = [(f"r{k}", (float(v),)) for k, v in enumerate(values)]
        base = _toy_table(("x",), rows)
        rescaled = _toy_table(
            ("x",), [(label, (math.exp(v[0]),)) for label, v in rows]
        )
        assert rank_by(base, "x") == rank_by(rescaled, "x")


class TestAnalyticsTable:
    def test_mixed_sources_intersect_columns(self):
        table = AnalyticsTable.from_portfolios(
            [
                PortfolioSummary("raw", CitationVector([4, 2, 1])),
                PortfolioSummary.from_summary("sum", 10, 5.0, 0.5),
            ]
        )
        assert "g" not in table.columns  # not derivable from a summary
        assert "h" not in table.columns  # summary row did not publish h
        assert set(table.columns) == {"P", "C", "i", "X", "E", "S", "eta", "z", "i_E"}

    def test_columns_in_registry_order(self):
        table = AnalyticsTable.from_portfolios(
            [PortfolioSummary("raw", CitationVector([4, 2, 1]))]
        )
        assert table.columns == ("P", "C", "i", "h", "g", "X", "E", "S", "eta", "z", "i_E")

    def test_missing_requested_column(self):
        with pytest.raises(UnknownIndicatorError):
            AnalyticsTable.from_portfolios(
                [PortfolioSummary.from_summary("sum", 10, 5.0, 0.5)],
                columns=("P", "h"),
            )

    @pytest.mark.parametrize("columns", ["PC", 5, [("P",)]])
    def test_columns_must_be_a_list_of_names(self, columns):
        portfolios = [PortfolioSummary("raw", CitationVector([4, 2, 1]))]
        with pytest.raises(DomainError, match="^columns must be "):
            AnalyticsTable.from_portfolios(portfolios, columns=columns)
        with pytest.raises(DomainError, match="^columns must be "):
            AnalyticsTable.from_reports([("raw", compute_all([4, 2, 1]))], columns=columns)

    @pytest.mark.parametrize(
        "order, columns, missing",
        [((0, 1, 2), ("h", "g"), "g"), ((0, 2, 1), ("h", "g"), "h"), ((1, 2), ("P", "g"), "g")],
    )
    def test_missing_column_named_by_first_report_lacking_it(self, order, columns, missing):
        portfolios = [
            PortfolioSummary("raw", CitationVector([4, 2, 1])),
            PortfolioSummary.from_summary("with h", 10, 5.0, 0.5, h=4),
            PortfolioSummary.from_summary("without h", 10, 5.0, 0.5),
        ]
        with pytest.raises(UnknownIndicatorError) as excinfo:
            AnalyticsTable.from_portfolios([portfolios[k] for k in order], columns=columns)
        assert excinfo.value.name == missing

    _SOURCES = {
        "raw": PortfolioSummary("raw", CitationVector([4, 2, 1])),
        "with h": PortfolioSummary.from_summary("with h", 10, 5.0, 0.5, h=4),
        "without h": PortfolioSummary.from_summary("without h", 7, 2.5, 0.25),
    }

    @pytest.mark.parametrize(
        "sources, columns",
        [
            (("raw", "with h"), ()),
            (("raw", "with h"), ("C",)),
            (("raw", "with h"), ("C", "P")),
            (("raw", "with h"), ("P", "P", "h")),
            (("raw", "with h", "without h"), None),
            (("raw", "with h", "without h"), ("i_E", "z", "eta", "S", "E", "X", "i", "C", "P")),
            (("without h", "raw", "with h"), ("eta", "P", "E", "eta")),
            (("with h", "without h", "raw"), ("i",)),
            (("without h", "without h"), ("z", "P", "C")),
            (("with h",), ("h", "S")),
            (("raw", "raw"), ("g", "C")),
        ],
    )
    def test_rows_and_flags_follow_the_columns(self, sources, columns):
        portfolios = [self._SOURCES[source] for source in sources]
        table = AnalyticsTable.from_portfolios(portfolios, columns=columns)
        columns = table.columns
        reports = [dict(p.report().magnitudes) for p in portfolios]
        assert table.rows == tuple(tuple(r[n] for n in columns) for r in reports)
        rebuilt = frozenset(columns) & {"C", "X", "E", "S", "z", "i_E"}
        assert table.reconstructed == tuple(
            frozenset() if source == "raw" else rebuilt for source in sources
        )
        assert table.reconstructed == tuple(
            frozenset() if p.vector is not None else RECONSTRUCTED_COLUMNS & set(columns)
            for p in portfolios
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_and_flags_are_per_name_lookups_of_each_report(self, data):
        """Rows taken as they are (one layout, its own columns) and rows
        picked by position (several layouts, or other columns) both hold
        each report's value of each column."""
        portfolio = st.one_of(
            st.lists(st.integers(0, 50), min_size=1, max_size=8).map(CitationVector),
            st.tuples(
                st.integers(1, 40),
                st.floats(0, 100),
                st.floats(0.01, 1),
                st.one_of(st.none(), st.floats(0, 1)),
            ),
        )
        sources = data.draw(st.lists(portfolio, min_size=1, max_size=6))
        portfolios = [
            PortfolioSummary(f"a{k}", source)
            if isinstance(source, CitationVector)
            else PortfolioSummary.from_summary(
                f"a{k}", *source[:3], None if source[3] is None else source[3] * source[0]
            )
            for k, source in enumerate(sources)
        ]
        reports = [p.report() for p in portfolios]
        shared = [name for name in VECTOR_LAYOUT if all(name in r for r in reports)]
        columns = data.draw(
            st.one_of(
                st.none(),
                st.sampled_from(shared).map(lambda name: (name,)),
                st.lists(st.sampled_from(shared), max_size=12).map(tuple),
                st.sets(st.sampled_from(shared)).map(
                    lambda names: tuple(n for n in shared if n in names)
                ),
            )
        )
        table = AnalyticsTable.from_portfolios(portfolios, columns=columns)
        expected = tuple(shared) if columns is None else columns
        assert table.columns == expected
        assert table.rows == tuple(
            tuple(report[name].magnitude for name in expected) for report in reports
        )
        assert table.reconstructed == tuple(
            frozenset() if p.vector is not None else RECONSTRUCTED_COLUMNS & set(expected)
            for p in portfolios
        )

    def test_mixed_dimensions_in_a_column_rejected(self):
        labeled = [
            ("a", {"P": Quantity(3.0, PAPERS), "h": Quantity(2.0, PAPERS)}),
            ("b", {"P": Quantity(4.0, PAPERS), "h": Quantity(2.0, PAPERS_SQUARED)}),
        ]
        with pytest.raises(HeterogeneityError) as excinfo:
            AnalyticsTable.from_reports(labeled)
        assert str(excinfo.value) == (
            "cannot mix in column 'h' quantities of dimension [P] and [P^2]"
        )

    def test_dimensions_belong_to_columns(self):
        table = AnalyticsTable.from_portfolios(
            [PortfolioSummary("a", CitationVector([4, 2, 1]))], columns=("P", "i_E", "eta")
        )
        assert table.dims == (PAPERS, Dimension(Fraction(3, 2)), Dimension(0))
        assert table.rows == ((3.0, math.sqrt(21), (49 / 3) / 21),)
        empty = AnalyticsTable.from_portfolios([], columns=("C", "w"))
        assert empty.dims == (PAPERS_SQUARED, None)
        assert empty.rows == ()

    def test_row_lookup(self):
        table = reconstructed_table()
        row = table.row("LI YF")
        assert row["P"].magnitude == 142.0

    def test_row_lookup_of_a_missing_label(self):
        with pytest.raises(DomainError) as excinfo:
            reconstructed_table().row("missing")
        assert str(excinfo.value) == "no row labeled 'missing'"

    def test_reference_rows_carry_published_h(self):
        table = reconstructed_table()
        idx = table.columns.index("h")
        for record, row in zip(AUTHOR_ROWS, table.rows):
            h = Quantity(row[idx], table.dims[idx])
            assert h.magnitude == record.h
