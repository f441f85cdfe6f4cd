"""Self-contained SVG scatter plots on log-log axes.

Each series gets its own marker shape and a fitted-slope annotation, so
a replication-scaling probe renders as collinear points whose labelled
slope is the indicator's dimension exponent.  The raw points are also
emitted as CSV alongside the SVG, keeping the figure diffable and the
data re-plottable.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .dimension import Record, finite, pairs, real, text
from .errors import DegenerateSeriesError, DomainError, shown
from .scaling import ExponentEstimate, _check_log_points, fit_loglog
from .tabular import _csv_text

_MARKERS = ("circle", "square", "triangle", "diamond", "cross")
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 640, 480  # the SVG's size in pixels
# A CR is written as a reference, since a parser reads a raw one as LF.
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;"})
# Characters XML 1.0 forbids in a document, escaped or not (text() refuses the
# surrogates): the C0 controls but tab, LF and CR, and U+FFFE and U+FFFF.
_NOT_XML = frozenset(map(chr, [*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF]))


def _xml_text(value: object, name: str) -> str:
    """``value`` read by :func:`text`, which must hold no character XML 1.0 forbids."""
    if not _NOT_XML.isdisjoint(text(value, name)):
        raise DomainError(f"{name} must be XML text, got {shown(value)}")
    return value


class PlotSeries(Record):
    """A point set destined for log-log axes: a ``str`` name that XML can
    hold, (x, y) pairs, each coordinate read by :func:`real`, and optionally
    the points' log-log fit, an :class:`ExponentEstimate` (a probe's own)
    whose slope and intercept are finite reals, held as floats; a
    :class:`DomainError` names the field, and the series, otherwise.
    """

    __slots__ = ("name", "points", "fit")

    def __init__(
        self,
        name: str,
        points: Sequence[Sequence[float]],
        fit: ExponentEstimate | None = None,
    ) -> None:
        series = f"series {shown(_xml_text(name, 'series name'))}"
        checked = pairs(points, f"points of {series}")
        coordinate = f"point coordinate of {series}"
        checked = tuple((real(x, coordinate), real(y, coordinate)) for x, y in checked)
        if fit is not None:
            if not isinstance(fit, ExponentEstimate):
                raise DomainError(f"fit of {series} must be an ExponentEstimate, got {shown(fit)}")
            term = f"fit slope or intercept of {series}"
            line = [finite(value, term) for value in (fit.slope, fit.intercept)]
            fit = ExponentEstimate(*line, fit.max_residual)
        self._fill(name, checked, fit)


def _marker_svg(shape: str, x: float, y: float, color: str) -> str:
    r = 4.0
    if shape == "circle":
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}"/>'
    if shape == "square":
        return (
            f'<rect x="{x - r:.2f}" y="{y - r:.2f}" width="{2 * r}" height="{2 * r}" '
            f'fill="{color}"/>'
        )
    if shape == "triangle":
        pts = f"{x:.2f},{y - r:.2f} {x - r:.2f},{y + r:.2f} {x + r:.2f},{y + r:.2f}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    if shape == "diamond":
        pts = f"{x:.2f},{y - r:.2f} {x + r:.2f},{y:.2f} {x:.2f},{y + r:.2f} {x - r:.2f},{y:.2f}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    return (
        f'<path d="M {x - r:.2f} {y - r:.2f} L {x + r:.2f} {y + r:.2f} '
        f'M {x - r:.2f} {y + r:.2f} L {x + r:.2f} {y - r:.2f}" '
        f'stroke="{color}" stroke-width="2"/>'
    )


def _log_range(values: Iterable[float]) -> tuple[float, float]:
    """The axis range of ``values`` in log10: their span, widened to 1 when
    it is under 1e-12, padded by 6% at each end."""
    logs = list(map(math.log10, values))
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def emit_loglog_svg(series: Iterable[PlotSeries], title: str = "") -> tuple[str, str]:
    """Render series, read once, to (svg_text, points_csv_text), the SVG
    640 × 480 pixels; ``title`` must be a ``str`` that XML can hold, as a
    series name must.

    Each series' dashed line and slope label come from its log-log fit: the
    ``fit`` it carries, which is not refitted, or else :func:`fit_loglog`
    of its points, which needs at least three of them.  A series needs at
    least one point, and every point must pass the fit's rule, finite and
    strictly positive, either way; a :class:`DegenerateSeriesError`
    prefixed with the series name is raised otherwise.
    """
    series = tuple(series)
    _xml_text(title, "plot title")
    if not series:
        raise DomainError("nothing to plot")
    fits = []
    for s in series:
        if s.fit is not None and not s.points:
            raise DegenerateSeriesError(f"series {s.name}: log-log axes need at least one point")
        try:
            if s.fit is None:
                fits.append(fit_loglog([p[0] for p in s.points], [p[1] for p in s.points]))
            else:
                _check_log_points(s.points)  # the fit's point rule, with no logs taken
                fits.append(s.fit)
        except DegenerateSeriesError as exc:
            raise DegenerateSeriesError(f"series {s.name}: {exc}") from None

    lo_x, hi_x = _log_range(p[0] for s in series for p in s.points)
    lo_y, hi_y = _log_range(p[1] for s in series for p in s.points)

    ml, mr, mt, mb = 64, 16, 28, 44
    plot_w = _WIDTH - ml - mr
    plot_h = _HEIGHT - mt - mb

    def sx(lx: float) -> float:
        return ml + (lx - lo_x) / (hi_x - lo_x) * plot_w

    def sy(ly: float) -> float:
        return mt + (hi_y - ly) / (hi_y - lo_y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="{mt - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title.translate(_XML_ESCAPES)}</text>'
        )

    # Decade gridlines and labels on both log axes.
    for decade in range(math.ceil(lo_x), math.floor(hi_x) + 1):
        x = sx(decade)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + plot_h}" '
            'stroke="#ccc" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + plot_h + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">10^{decade}</text>'
        )
    for decade in range(math.ceil(lo_y), math.floor(hi_y) + 1):
        y = sy(decade)
        parts.append(
            f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + plot_w}" y2="{y:.2f}" '
            'stroke="#ccc" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">10^{decade}</text>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">scale factor</text>'
    )
    parts.append(
        f'<text x="14" y="{mt + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {mt + plot_h / 2:.0f})">indicator value</text>'
    )

    csv_lines = ["series,x,y"]
    for idx, (s, fit) in enumerate(zip(series, fits)):
        color = _COLORS[idx % len(_COLORS)]
        marker = _MARKERS[idx % len(_MARKERS)]
        name_cell = _csv_text([[s.name]])[:-1]  # the name as a CSV field
        x1, x2 = min(p[0] for p in s.points), max(p[0] for p in s.points)
        lx1, lx2 = math.log10(x1), math.log10(x2)
        # fit is in natural log; the log10 line shares slope and maps intercept.
        ly1 = (fit.slope * math.log(x1) + fit.intercept) / math.log(10)
        ly2 = (fit.slope * math.log(x2) + fit.intercept) / math.log(10)
        parts.append(
            f'<line x1="{sx(lx1):.2f}" y1="{sy(ly1):.2f}" x2="{sx(lx2):.2f}" '
            f'y2="{sy(ly2):.2f}" stroke="{color}" stroke-width="1" '
            'stroke-dasharray="4 3"/>'
        )
        for x, y in s.points:
            parts.append(
                _marker_svg(marker, sx(math.log10(x)), sy(math.log10(y)), color)
            )
            csv_lines.append(f"{name_cell},{x!r},{y!r}")
        label_y = mt + 16 + 15 * idx
        parts.append(_marker_svg(marker, ml + 12, label_y - 4, color))
        parts.append(
            f'<text x="{ml + 22}" y="{label_y}" font-family="sans-serif" '
            f'font-size="12" fill="{color}">{s.name.translate(_XML_ESCAPES)}: '
            f"slope {fit.slope:.2f}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n", "\n".join(csv_lines) + "\n"
