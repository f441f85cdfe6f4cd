"""Multi-portfolio analytics: reconstruction, correlation, ranking.

Published author tables rarely include raw citation vectors; they print
the summary triple (P, i, eta) plus h.  That triple determines every
ladder indicator except h and g, so a table of authors can be rebuilt
from summaries, correlated column against column, and ranked under any
indicator.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Iterable, Mapping, Sequence

from .dimension import Dimension, Quantity, Record, count, name_list, pairs, real, text
from .errors import (
    DomainError,
    EmptyPortfolioError,
    UnknownIndicatorError,
    ZeroVarianceError,
    shown,
)
from .indicators import (
    SUMMARY_H_LAYOUT,
    SUMMARY_LAYOUT,
    VECTOR_LAYOUT,
    IndicatorReport,
    _ladder,
    as_citation_vector,
    compute_all,
    registry_symbols,
)

# Columns a summary triple determines (everything but P, i, eta themselves
# and the non-derivable h and g).
RECONSTRUCTED_COLUMNS = frozenset({"C", "X", "E", "S", "z", "i_E"})
# The reconstructed columns of each report layout: none of a vector's.
_RECONSTRUCTED = dict.fromkeys((SUMMARY_LAYOUT, SUMMARY_H_LAYOUT), RECONSTRUCTED_COLUMNS)
_RECONSTRUCTED[VECTOR_LAYOUT] = frozenset()
_FLOAT_MAX = sys.float_info.max


class PortfolioSummary(Record):
    """One author's portfolio: either a raw citation vector or a summary.

    Exactly one source form is present.  A vector is held as a non-empty
    :class:`~scindex.indicators.CitationVector`, so a list of counts is read
    as one.  The summary form carries the triple (papers P, mean impact i,
    evenness eta) and optionally the published h, which cannot be derived
    from the triple; they are held as :func:`_check_summary` reads them, an
    int and floats.
    """

    __slots__ = ("label", "vector", "papers", "impact", "evenness", "h")

    def __init__(self, label, vector=None, papers=None, impact=None, evenness=None, h=None) -> None:
        text(label, "portfolio label")  # a str, for every writer to take it
        if (vector is None) == (papers is None):
            raise DomainError(
                f"portfolio {shown(label)} needs exactly one of: raw vector, summary triple"
            )
        if papers is not None:
            papers, impact, evenness, h = _check_summary(papers, impact, evenness, h)
        else:
            try:
                vector = as_citation_vector(vector)
            except TypeError:  # not iterable
                raise DomainError(
                    f"portfolio {shown(label)} vector must be a list of counts, got {shown(vector)}"
                ) from None
            if not vector:
                raise EmptyPortfolioError(f"portfolio {shown(label)} has no papers")
        self._fill(label, vector, papers, impact, evenness, h)

    @classmethod
    def from_summary(
        cls,
        label: str,
        papers: int,
        impact: float,
        evenness: float,
        h: float | None = None,
    ) -> "PortfolioSummary":
        return cls(label, papers=papers, impact=impact, evenness=evenness, h=h)

    @classmethod
    def _checked(
        cls, label, vector, papers=None, impact=None, evenness=None, h=None
    ) -> "PortfolioSummary":
        """The record of a vector, or of summary values that already pass
        :func:`_check_summary`."""
        record = object.__new__(cls)
        record._fill(label, vector, papers, impact, evenness, h)
        return record

    def report(self) -> IndicatorReport:
        """The indicator report, a :class:`DomainError` naming the portfolio."""
        try:
            if self.vector is not None:
                return compute_all(self.vector)
            return reconstruct_from_summary(self.papers, self.impact, self.evenness, self.h)
        except DomainError as exc:
            raise DomainError(f"portfolio {shown(self.label)}: {exc}") from None


def _paper_count(value: object) -> int:
    """A summary's P: an integral float as an int, any other value by :func:`count`."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return count(value, "paper counts")


def _check_summary(
    papers: int | None,
    impact: float | None,
    evenness: float | None,
    h: float | None = None,
) -> tuple[int, float, float, float | None]:
    """The summary values as an int P and float i, eta and h (None when no
    h is published), each read by its value rule (:func:`_paper_count`,
    :func:`real`), once each is checked: P from 1 to the float range, i
    finite and >= 0, eta in (0, 1] and h in [0, P]; an i or h of -0.0 as 0.0.
    """
    if papers is None or impact is None or evenness is None:
        raise DomainError("summary form needs papers, impact and evenness")
    if type(papers) is not int:
        papers = _paper_count(papers)
    if papers < 1:
        raise DomainError(f"paper count must be >= 1, got {shown(papers)}")
    if papers > _FLOAT_MAX:
        raise DomainError("paper count exceeds the floating-point range")
    if type(impact) is not float:  # exact floats, as the readers give, pass at once
        impact = real(impact, "mean impact")
    if type(evenness) is not float:
        evenness = real(evenness, "evenness")
    if impact < 0:
        raise DomainError(f"mean impact must be >= 0, got {impact}")
    if not impact <= _FLOAT_MAX:  # nan and inf fail it
        raise DomainError(f"mean impact must be finite, got {impact}")
    if not 0 < evenness <= 1:
        raise DomainError(f"evenness must lie in (0, 1], got {evenness}")
    if h is not None:
        if type(h) is not float:
            h = real(h, "h")
        if not 0.0 <= h <= papers:  # nan and ±inf fail it too
            if not math.isfinite(h):
                raise DomainError(f"h must be finite, got {h}")
            raise DomainError(f"h must lie in [0, P], got {h} with P = {shown(papers)}")
        h += 0.0
    return papers, impact + 0.0, evenness, h


def _summaries_pass(
    papers: Sequence[int], impacts: Sequence[float], etas: Sequence[float], h: Sequence
) -> bool:
    """Whether non-empty summary columns, as the CSV column reader converts
    them (the one reader that checks by columns), pass the rules of
    :func:`_check_summary`: P an int from 1 to the float range, i finite and
    >= 0, eta in (0, 1] and a published h (None where there is none) in [0, P].
    """
    # A finite sum holds no nan or infinity, so min and max bound every value.
    return (
        1 <= min(papers) and max(papers) <= _FLOAT_MAX
        and math.isfinite(sum(impacts)) and min(impacts) >= 0
        and math.isfinite(sum(etas)) and 0 < min(etas) and max(etas) <= 1
        and _h_pass(h, papers)
    )


def _h_pass(h: Sequence, papers: Sequence[int]) -> bool:
    """Whether each published h (None where there is none) lies in [0, P].

    A float compares with an int exactly, so an h just past a P beyond
    2**53 fails, and nan fails ``<=``.
    """
    try:
        return min(h, default=0.0) >= 0.0 and all(map(operator.le, h, papers))
    except TypeError:  # some rows publish no h
        return all(x is None or 0.0 <= x <= p for x, p in zip(h, papers))


def reconstruct_from_summary(
    papers: int, impact: float, evenness: float, h: float | None = None
) -> IndicatorReport:
    """Rebuild the ladder indicators from the summary triple (P, i, eta).

    C = i*P, X = i^2*P, E = X/eta and S = E - X; the ladder builder
    derives z and i_E from these and keeps i and eta as given.  h is not
    derivable from the triple: a published ``h`` is placed at its registry
    place, after i, and without one h is absent from the result, as g
    always is.
    """
    papers, impact, evenness, h = _check_summary(papers, impact, evenness, h)
    c = impact * papers
    x = impact * impact * papers
    e = x / evenness
    return _ladder(papers, c, impact, x, e, e - x, evenness, h)


def _registry_ordered(names: set[str]) -> tuple[str, ...]:
    ordered = [n for n in VECTOR_LAYOUT if n in names]
    ordered.extend(sorted(names.difference(ordered)))
    return tuple(ordered)


def _table_columns(
    layouts: Sequence[tuple[str, ...]], columns: Sequence[str] | None
) -> tuple[str, ...]:
    """The requested columns, read by :func:`name_list`, or those all
    layouts share in registry order.

    ``layouts`` holds the distinct key tuples of a table's reports, each
    checked once, in order of first appearance.
    """
    if columns is None:
        if not layouts:
            raise DomainError("cannot infer columns for an empty table")
        return _registry_ordered(set(layouts[0]).intersection(*layouts[1:]))
    columns = name_list(columns, "columns")
    for keys in map(set, layouts):
        for name in columns:
            if name not in keys:
                raise UnknownIndicatorError(name)
    return columns


def _distinct(layouts: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """The distinct tuples of ``layouts``, in order of first appearance."""
    # A tuple does not keep its hash, so one tuple shared by every report
    # is found by identity, without hashing each.
    if layouts and layouts.count(layouts[0]) == len(layouts):
        return layouts[:1]
    return list(dict.fromkeys(layouts))


def _registry_dims(columns: Sequence[str]) -> tuple[Dimension | None, ...]:
    symbols = registry_symbols()
    return tuple(map(symbols.get, columns))


class AnalyticsTable(Record):
    """Labeled indicator values sharing one ordered column set.

    ``dims`` holds one dimension per column (``None`` only for a name
    outside the registry in a table without rows) and ``rows`` the float
    magnitudes, one tuple per label.
    """

    __slots__ = ("columns", "dims", "labels", "rows", "reconstructed")

    @classmethod
    def from_reports(
        cls,
        labeled: Iterable[tuple[str, Mapping[str, Quantity]]],
        columns: Sequence[str] | None = None,
    ) -> "AnalyticsTable":
        """Table from ``Quantity`` mappings; a column's rows share one dimension.

        Each column takes its dimension from the first row, and a later
        row of another dimension raises :class:`HeterogeneityError`.  No
        value is marked reconstructed.  ``labeled`` is read by :func:`pairs`.
        """
        labeled = pairs(labeled, "labeled reports")
        columns = _table_columns(_distinct([tuple(r) for _, r in labeled]), columns)
        labels = tuple(text(label, "portfolio label") for label, _ in labeled)
        if labeled:
            dims = tuple(labeled[0][1][name].dim for name in columns)
        else:
            dims = _registry_dims(columns)
        rows = []
        for _, report in labeled:
            row = []
            for name, dim in zip(columns, dims):
                quantity = report[name]
                dim.__add__(quantity.dim, f"mix in column {name!r}")
                row.append(quantity.magnitude)
            rows.append(tuple(row))
        return cls(columns, dims, labels, tuple(rows), (frozenset(),) * len(rows))

    @classmethod
    def from_portfolios(
        cls,
        portfolios: Iterable[PortfolioSummary],
        columns: Sequence[str] | None = None,
    ) -> "AnalyticsTable":
        """Table of the portfolios' reports, by ``columns`` or the names they share.

        When every report has one layout and the columns are that layout,
        each report's values are its row as they are; otherwise each
        layout picks its row's values by position.
        """
        portfolios = tuple(portfolios)
        reports = tuple(map(PortfolioSummary.report, portfolios))
        names = list(map(operator.attrgetter("names"), reports))
        layouts = _distinct(names)
        columns = _table_columns(layouts, columns)
        values = map(operator.attrgetter("row"), reports)
        if layouts == [columns]:  # each report is its row as it is
            rows = tuple(values)
        else:
            at = {layout: tuple(map(layout.index, columns)) for layout in layouts}
            rows = tuple(tuple(map(row.__getitem__, at[n])) for n, row in zip(names, values))
        labels = tuple(map(operator.attrgetter("label"), portfolios))
        visible = {layout: _RECONSTRUCTED[layout].intersection(columns) for layout in layouts}
        if len(layouts) == 1:
            reconstructed = (visible[layouts[0]],) * len(reports)
        else:
            reconstructed = tuple(map(visible.__getitem__, names))
        return cls(columns, _registry_dims(columns), labels, rows, reconstructed)

    def __len__(self) -> int:
        return len(self.labels)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownIndicatorError(name) from None

    def row(self, label: str) -> dict[str, Quantity]:
        try:
            idx = self.labels.index(label)
        except ValueError:
            raise DomainError(f"no row labeled {label!r}") from None
        return dict(zip(self.columns, map(Quantity, self.rows[idx], self.dims)))


def pearson_matrix(
    table: AnalyticsTable, columns: Sequence[str] | None = None
) -> tuple[tuple[float, ...], ...]:
    """Pearson correlation of the selected columns (read by
    :func:`name_list`), or of every column, as a tuple of row tuples.

    Symmetric with a unit diagonal.  Uses the covariance-over-product-of-
    deviations form directly (the sample/population variance convention
    cancels in r).  r does not change when a column is scaled, so each is
    first scaled by the power of two (exact) that puts its largest
    magnitude in [0.5, 1), and no sum overflows or underflows.  Each r is
    clamped to [-1, 1], which the rounded sums of exactly proportional
    columns can pass by an ulp or two.
    """
    names = table.columns if columns is None else name_list(columns, "columns")
    if len(table) < 3:
        raise DomainError(f"correlation needs at least 3 rows, got {len(table)}")
    deviations = []
    for name in names:
        values = list(map(operator.itemgetter(table.column_index(name)), table.rows))
        low, high = min(values), max(values)
        if low == high:
            raise ZeroVarianceError(name)
        shift = -math.frexp(max(-low, high))[1]
        values = [math.ldexp(value, shift) for value in values]
        mean = math.fsum(values) / len(values)
        deviations.append([value - mean for value in values])
    norms = [math.sqrt(sum(map(operator.mul, d, d))) for d in deviations]
    matrix = [[1.0] * len(names) for _ in names]
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            r = sum(map(operator.mul, deviations[a], deviations[b])) / (norms[a] * norms[b])
            matrix[a][b] = matrix[b][a] = max(-1.0, min(1.0, r))
    return tuple(map(tuple, matrix))


def rank_by(table: AnalyticsTable, indicator: str) -> list[str]:
    """Labels sorted by descending indicator magnitude; ties break by label."""
    idx = table.column_index(indicator)
    keyed = [(-row[idx], label) for label, row in zip(table.labels, table.rows)]
    return [label for _, label in sorted(keyed)]
