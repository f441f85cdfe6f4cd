"""SVG scatter output for log-log scaling plots."""

import csv
import io
import math
import re
import xml.dom.minidom
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scindex import (
    DegenerateSeriesError,
    DomainError,
    ExponentEstimate,
    PlotSeries,
    emit_loglog_svg,
    probe_registry,
)
from scindex.errors import shown

_FIT = ExponentEstimate(2.0, math.log(7), 0.0)


def _series_c():
    # Total citations on [4,2,1] under replication at scales 1, 2, 4.
    return PlotSeries("C", [(1, 7), (2, 28), (4, 112)])


class TestPlotSeries:
    def test_coordinates_are_held_as_floats(self):
        series = PlotSeries("h", [(1, 2), (np.int64(2), np.float64(4.5)), (Fraction(1, 2), 8.0)])
        assert series.points == ((1.0, 2.0), (2.0, 4.5), (0.5, 8.0))
        assert all(type(c) is float for point in series.points for c in point)

    @pytest.mark.parametrize(
        "points, bad",
        [([("1", True)], "'1'"), ([(1, 2), (2, True)], "True"), ([(1, None)], "None")],
        ids=["text", "bool", "none"],
    )
    def test_a_bool_or_a_non_real_coordinate_is_refused_by_name(self, points, bad):
        with pytest.raises(DomainError) as excinfo:
            PlotSeries("h", points)
        assert str(excinfo.value) == (
            f"point coordinate of series 'h' must be a real number, got {bad}"
        )

    @pytest.mark.parametrize(
        "points", [[(1, 2, 3)], [(1, 2), 5], None], ids=["triple", "number", "none"]
    )
    def test_points_that_are_not_pairs_are_refused_by_name(self, points):
        with pytest.raises(DomainError) as excinfo:
            PlotSeries("h", points)
        assert str(excinfo.value) == f"points of series 'h' must be pairs, got {points!r}"


    @pytest.mark.parametrize(
        "plot, message",
        [
            (lambda: PlotSeries(5, [(1, 7)]), "series name must be a string, got 5"),
            (lambda: emit_loglog_svg([_series_c()], title=7), "plot title must be a string, got 7"),
        ],
        ids=["name", "title"],
    )
    def test_plot_text_that_is_no_str_is_refused_by_field(self, plot, message):
        with pytest.raises(DomainError) as excinfo:
            plot()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "plot, message",
        [
            (lambda: PlotSeries("a\x01b", [(1, 7)]), "series name must be XML text, got 'a\\x01b'"),
            (
                lambda: emit_loglog_svg([_series_c()], title="t\x0c"),
                "plot title must be XML text, got 't\\x0c'",
            ),
            (lambda: PlotSeries("\uffff", [(1, 7)]), "series name must be XML text, got '\\uffff'"),
            (
                lambda: emit_loglog_svg([_series_c()], title="A\ud800"),
                "plot title must be UTF-8 text, got 'A\\ud800'",
            ),
        ],
        ids=["control-name", "control-title", "noncharacter-name", "surrogate-title"],
    )
    def test_plot_text_that_xml_cannot_hold_is_refused_by_field(self, plot, message):
        with pytest.raises(DomainError) as excinfo:
            plot()
        assert str(excinfo.value) == message

    def test_a_fit_is_optional(self):
        assert _series_c().fit is None
        assert PlotSeries("C", [(1, 7)], _FIT).fit == _FIT

    def test_a_fit_line_is_held_as_floats(self):
        fit = PlotSeries("C", [(1, 7)], ExponentEstimate(Fraction(3, 2), np.int64(2), 0.0)).fit
        assert fit == ExponentEstimate(1.5, 2.0, 0.0)
        assert type(fit.slope) is float and type(fit.intercept) is float

    @pytest.mark.parametrize(
        "fit", [2.0, (2.0, 0.5, 0.0), "fit", True], ids=["number", "triple", "text", "bool"]
    )
    def test_a_fit_that_is_no_estimate_is_refused_by_name(self, fit):
        with pytest.raises(DomainError) as excinfo:
            PlotSeries("h", [(1, 2)], fit)
        assert str(excinfo.value) == (
            f"fit of series 'h' must be an ExponentEstimate, got {shown(fit)}"
        )

    @pytest.mark.parametrize(
        "fit, message",
        [
            (ExponentEstimate("2", 0.0, 0.0), "must be a real number, got '2'"),
            (ExponentEstimate(1.0, True, 0.0), "must be a real number, got True"),
            (ExponentEstimate(math.nan, 0.0, 0.0), "must be finite, got nan"),
            (ExponentEstimate(1.0, -math.inf, 0.0), "must be finite, got -inf"),
        ],
        ids=["text-slope", "bool-intercept", "nan-slope", "infinite-intercept"],
    )
    def test_a_fit_line_that_is_not_finite_and_real_is_refused_by_name(self, fit, message):
        with pytest.raises(DomainError) as excinfo:
            PlotSeries("h", [(1, 2)], fit)
        assert str(excinfo.value) == f"fit slope or intercept of series 'h' {message}"


# Characters XML 1.0 forbids: C0 controls but tab, LF and CR, the
# surrogates, U+FFFE and U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# Any code point, surrogates included, with the characters that matter to XML
# drawn often.
_any_text = st.text(
    st.characters(codec=None, exclude_categories=()) | st.sampled_from("&<>\"'\t\r\n\x01]"),
    max_size=8,
)


class TestEmitLogLogSvg:
    @settings(max_examples=300, deadline=None)
    @given(name=_any_text, title=_any_text)
    def test_plot_text_is_refused_or_parses_as_xml(self, name, title):
        try:
            svg, _ = emit_loglog_svg([PlotSeries(name, [(1, 7), (2, 28), (4, 112)])], title)
        except DomainError:
            assert _NOT_XML.search(name + title)
        else:
            assert not _NOT_XML.search(name + title)
            texts = xml.dom.minidom.parseString(svg).getElementsByTagName("text")
            shown_text = {node.firstChild.data for node in texts if node.firstChild}
            # Exactly: a CR is written as a reference, which a parser keeps.
            assert f"{name}: slope 2.00" in shown_text
            assert not title or title in shown_text

    def test_collinear_points_with_slope_label(self):
        svg, _ = emit_loglog_svg([_series_c()])
        assert svg.startswith("<svg xmlns=")
        assert svg.rstrip().endswith("</svg>")
        assert "C: slope 2.00" in svg
        # three data markers plus one legend glyph
        assert svg.count("<circle") == 4

    def test_marker_shapes_differ_per_series(self):
        euclid = PlotSeries(
            "i_E", [(1, math.sqrt(21)), (2, math.sqrt(168)), (4, math.sqrt(1344))]
        )
        h_series = PlotSeries("h", [(1, 2), (2, 4), (4, 8)])
        svg, _ = emit_loglog_svg([euclid, h_series])
        assert "i_E: slope 1.50" in svg
        assert "h: slope 1.00" in svg
        assert "<circle" in svg and "<rect" in svg

    def test_five_marker_shapes_cycle(self):
        # Six series: circle, square, triangle, diamond, cross, then circle
        # again, each drawn at three points and once in the legend.
        series = [
            PlotSeries(f"s{k}", [(1, k + 1), (2, 2 * k + 2), (4, 4 * k + 4)]) for k in range(6)
        ]
        svg, _ = emit_loglog_svg(series)
        polygons = re.findall(r'<polygon points="([^"]*)"', svg)
        assert svg.count("<circle") == 8
        assert svg.count("<rect") == 2 + 4  # the background and plot frame, then the squares
        assert sorted(len(points.split()) for points in polygons) == [3] * 4 + [4] * 4
        assert svg.count("<path") == 4

    def test_non_positive_point_rejected(self):
        with pytest.raises(DegenerateSeriesError) as excinfo:
            emit_loglog_svg([PlotSeries("S", [(1, 0.0), (2, 1.0), (3, 2.0)])])
        assert "series S" in str(excinfo.value)
        assert "(1, 0)" in str(excinfo.value)

    def test_no_series_is_refused(self):
        with pytest.raises(DomainError) as excinfo:
            emit_loglog_svg([])
        assert str(excinfo.value) == "nothing to plot"

    def test_single_point_series_propagates_fit_error(self):
        with pytest.raises(DegenerateSeriesError):
            emit_loglog_svg([PlotSeries("C", [(1, 7)])])

    def test_companion_csv_reparses(self):
        series = _series_c()
        _, points_csv = emit_loglog_svg([series])
        lines = points_csv.strip().splitlines()
        assert lines[0] == "series,x,y"
        parsed = [line.split(",") for line in lines[1:]]
        assert [(float(x), float(y)) for _, x, y in parsed] == list(series.points)
        assert {name for name, _, _ in parsed} == {"C"}

    def test_decade_gridlines_labeled(self):
        svg, _ = emit_loglog_svg(
            [PlotSeries("C", [(1, 7), (10, 700), (100, 70000)])]
        )
        assert "10^1" in svg
        assert "10^4" in svg

    def test_names_and_title_are_escaped(self):
        series = [
            PlotSeries("a,b", [(1, 7), (2, 28), (4, 112)]),
            PlotSeries('x<y&z"', [(1, 2), (2, 4), (4, 8)]),
        ]
        svg, points_csv = emit_loglog_svg(series, title="C < E & co")
        texts = [
            node.firstChild.data
            for node in xml.dom.minidom.parseString(svg).getElementsByTagName("text")
        ]
        assert "C < E & co" in texts
        assert 'x<y&z": slope 1.00' in texts
        rows = list(csv.reader(io.StringIO(points_csv)))
        assert rows[0] == ["series", "x", "y"]
        assert all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows[1:]] == ["a,b"] * 3 + ['x<y&z"'] * 3


class TestCarriedFit:
    """A series that carries its fit is drawn from it and is not refitted."""

    def test_the_carried_fit_labels_the_series(self, monkeypatch):
        from scindex import svgplot

        monkeypatch.setattr(svgplot, "fit_loglog", None)  # a call would raise
        svg, _ = emit_loglog_svg([PlotSeries("C", [(1, 7), (2, 28)], ExponentEstimate(1.5, 0, 0))])
        assert "C: slope 1.50" in svg

    @pytest.mark.parametrize(
        "points, message",
        [
            ([(1, 7), (2, 0.0)], "strictly positive points, got (2, 0)"),
            ([(-1, 7), (2, 28)], "strictly positive points, got (-1, 7)"),
            ([(1, 7), (2, math.inf)], "finite points, got (2, inf)"),
            ([(1, math.nan), (2, 28)], "finite points, got (1, nan)"),
        ],
        ids=["zero", "negative", "infinite", "nan"],
    )
    def test_a_point_off_the_log_axes_is_refused_by_series(self, points, message):
        with pytest.raises(DegenerateSeriesError) as excinfo:
            emit_loglog_svg([_series_c(), PlotSeries("E", points, _FIT)])
        assert str(excinfo.value) == f"series E: log-log fit needs {message}"

    @given(
        points=st.lists(
            st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)), min_size=3, max_size=6
        ),
        at=st.integers(0, 5),
        bad=st.sampled_from([0.0, -0.0, -2.5, math.inf, -math.inf, math.nan]),
        axis=st.integers(0, 1),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_a_bad_point_reads_the_same_with_a_carried_fit_or_without(
        self, points, at, bad, axis
    ):
        point = list(points[at % len(points)])
        point[axis] = bad
        points[at % len(points)] = tuple(point)
        messages = []
        for fit in (None, _FIT):
            with pytest.raises(DegenerateSeriesError) as excinfo:
                emit_loglog_svg([PlotSeries("E", points, fit)])
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_a_series_without_points_is_refused_by_series(self):
        with pytest.raises(DegenerateSeriesError) as excinfo:
            emit_loglog_svg([_series_c(), PlotSeries("E", [], _FIT)])
        assert str(excinfo.value) == "series E: log-log axes need at least one point"

    @given(
        base=st.lists(st.integers(0, 60), min_size=1, max_size=8),
        lambdas=st.lists(st.integers(1, 500), min_size=3, max_size=8, unique=True),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_a_probe_fit_draws_the_bytes_a_refit_draws(self, base, lambdas):
        assume(any(base))
        results = probe_registry(base, sorted(lambdas))
        plotted = [r for r in results if all(v > 0 for v in r.values)]
        assume(plotted)
        carried = [PlotSeries(r.indicator, zip(r.lambdas, r.values), r.estimate) for r in plotted]
        refitted = [PlotSeries(r.indicator, zip(r.lambdas, r.values)) for r in plotted]
        assert emit_loglog_svg(carried, "t") == emit_loglog_svg(refitted, "t")
