"""SVG scatter output for log-log scaling plots."""

import csv
import io
import math
import re
import xml.dom.minidom
from fractions import Fraction

import numpy as np
import pytest

from scindex import (
    DegenerateSeriesError,
    DomainError,
    PlotSeries,
    emit_loglog_svg,
)


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


class TestEmitLogLogSvg:
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
