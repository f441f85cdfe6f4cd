"""The value contract: every public entry point returns or raises a
``ScindexError`` for any value in any of its numeric arguments, in a
quantity's dimension, in a list of indicator names, in a portfolio label
or vector, in each field of an indicator descriptor, in a table writer's
precision, in a plot series' name or fit, in a plot's title, and for any
item of its lists of counts, runs, scale factors, points, matrix cells
or names.  A label or vector that is taken goes on through every table
and record writer, whose output UTF-8 encodes, as a file or stdout takes
it; a series name or title that is taken gives an SVG that XML parses.

The values are the hostile ones below, each tried on every argument, and
more drawn by Hypothesis; a bool is refused wherever it is given.  The
only bare ``TypeError`` the package raises (see ``scindex.errors``) comes
from calls this test does not make: a wrong number of arguments, a
non-iterable list that is not read as pairs, names or a portfolio's
vector, and ``+``, ``-`` or ordering of a quantity against a
non-quantity.  Any iterable may stand for a list, and gives what the
list gives.
"""

import json
import math
import xml.dom.minidom
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scindex import (
    PAPERS,
    AnalyticsTable,
    CitationVector,
    Dimension,
    ExponentEstimate,
    IndicatorDescriptor,
    PlotSeries,
    PortfolioSummary,
    Quantity,
    ScindexError,
    compute_all,
    descriptor,
    emit_loglog_svg,
    emit_matrix,
    emit_records,
    emit_table,
    fit_loglog,
    parse_input,
    pearson_matrix,
    probe_registry,
    reconstruct_from_summary,
    replicate_scale,
    verify_dimension,
)
from scindex.scaling import check_tolerance

HOSTILE = [
    True, False, "x", "2", None, math.nan, math.inf, -math.inf, 2.5,
    Fraction(1, 3), Fraction(4), 1j, 2 + 0j, 10**400, -(10**400),
    # past the int digit limit, which str() of an int refuses
    10**5000, -(10**5000),
    np.int64(3), np.int8(-2), np.float64(2.5), np.float32("nan"), np.bool_(True),
    # items of the wrong shape
    (), (1,), (1, 2, 3), "ab", [2, [1]], {},
    # text UTF-8 cannot encode (a JSON \\ud800 escape gives it), and text XML forbids
    "A\ud800", "a\x01b",
]

values = st.one_of(
    st.sampled_from(HOSTILE),
    st.integers(),
    st.floats(),
    st.fractions(),
    st.complex_numbers(),
    st.text(max_size=3),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
)

COUNTS = [4, 2, 1]
RUNS = [(4, 1), (2, 2), (1, 1)]
LAMBDAS = [1, 2, 3]
POINTS = [(1, 1.0), (2, 4.0), (3, 9.0)]
SUMMARY = (10, 2.0, 0.5, 3.0)  # P, i, eta, h
NAMES = ["C", "h"]
C = descriptor("C")
PORTFOLIOS = [
    PortfolioSummary(label, CitationVector(counts))
    for label, counts in [("a", [4, 2, 1]), ("b", [9, 3]), ("c", [5, 5, 5, 1])]
]
REPORTS = [(portfolio.label, compute_all(portfolio.vector)) for portfolio in PORTFOLIOS]
TABLE = AnalyticsTable.from_portfolios(PORTFOLIOS)
MATRIX = pearson_matrix(TABLE, NAMES)
FIT = ExponentEstimate(2.0, 0.0, 0.0)


def argument(build):
    """The call of ``build`` on the value."""
    return lambda value: [lambda: build(value)]


def item(base, build):
    """The calls of ``build`` on ``base`` with the value in place of each item in turn."""
    return lambda value: [
        lambda k=k: build(base[:k] + [value] + base[k + 1 :]) for k in range(len(base))
    ]


def written(table, records=()):
    """``table`` in every table format and ``records`` in every record format,
    each encoded as UTF-8."""
    for format in ("tsv", "csv", "json"):
        emit_table(table, format).encode("utf-8")
    for format in ("csv", "json"):
        emit_records(records, format).encode("utf-8")


def record_written(record):
    """``record`` and its table through every writer."""
    written(AnalyticsTable.from_portfolios([record]), [record])


def matrix_written(names, matrix):
    """The matrix in every matrix format, each encoded as UTF-8."""
    for format in ("tsv", "csv", "json"):
        emit_matrix(names, matrix, format).encode("utf-8")


def plotted(series, title=""):
    """The SVG of ``series``, parsed as XML, and its points as UTF-8."""
    svg, points = emit_loglog_svg(series, title)
    xml.dom.minidom.parseString(svg.encode("utf-8"))
    points.encode("utf-8")


def read_written(text):
    """The records of JSON ``text`` and their table through every writer."""
    records = parse_input(text, "json")
    written(AnalyticsTable.from_portfolios(records), records)


def json_read(label):
    """The calls that read a wide and a summary JSON record labelled
    ``label``, if it is a ``str``, and write what they read."""
    if not isinstance(label, str):
        return []
    forms = ({"citations": COUNTS}, {"P": 10, "i": 2.0, "eta": 0.5})
    texts = [json.dumps([{"author": label, **form}]) for form in forms]
    return [lambda text=text: read_written(text) for text in texts]


def summary_field(position, build):
    """The call of ``build`` on the summary with the value as its field at ``position``."""
    before, after = SUMMARY[:position], SUMMARY[position + 1 :]
    return argument(lambda value: build(*before, value, *after))


ENTRY_POINTS = {
    "Quantity": argument(lambda v: Quantity(v, PAPERS)),
    "Quantity dim": argument(lambda v: Quantity(1.0, v)),
    "Dimension": argument(Dimension),
    "Quantity * value": argument(lambda v: Quantity(2.0, PAPERS) * v),
    "Quantity / value": argument(lambda v: Quantity(2.0, PAPERS) / v),
    "Quantity ** value": argument(lambda v: Quantity(2.0, PAPERS) ** v),
    "CitationVector": item(COUNTS, CitationVector),
    "CitationVector.from_runs": item(RUNS, CitationVector.from_runs),
    "CitationVector.from_runs pair": item(
        [0, 1], lambda pair: CitationVector.from_runs([tuple(pair)])
    ),
    "compute_all": item(COUNTS, compute_all),
    "replicate_scale base": item(COUNTS, lambda counts: replicate_scale(counts, 2)),
    "replicate_scale factor": argument(lambda v: replicate_scale(COUNTS, v)),
    "verify_dimension base": item(COUNTS, lambda counts: verify_dimension(C, counts)),
    "verify_dimension lambdas": item(LAMBDAS, lambda lams: verify_dimension(C, COUNTS, lams)),
    "verify_dimension tolerance": argument(lambda v: verify_dimension(C, COUNTS, tolerance=v)),
    "verify_dimension exponent": argument(
        lambda v: verify_dimension(IndicatorDescriptor("C", Dimension(v), C.compute), COUNTS)
    ),
    "verify_dimension declared_dim": argument(
        lambda v: verify_dimension(IndicatorDescriptor("C", v, C.compute), COUNTS)
    ),
    "verify_dimension compute": argument(
        lambda v: verify_dimension(IndicatorDescriptor("C", C.declared_dim, v), COUNTS)
    ),
    "verify_dimension name": argument(
        lambda v: verify_dimension(IndicatorDescriptor(v, C.declared_dim, C.compute), COUNTS)
    ),
    "verify_dimension fit_tolerance": argument(
        lambda v: verify_dimension(IndicatorDescriptor("C", C.declared_dim, C.compute, v), COUNTS)
    ),
    "probe_registry base": item(COUNTS, probe_registry),
    "probe_registry lambdas": item(LAMBDAS, lambda lams: probe_registry(COUNTS, lams)),
    "probe_registry tolerance": argument(lambda v: probe_registry(COUNTS, tolerance=v)),
    "probe_registry names": argument(lambda v: probe_registry(COUNTS, names=v)),
    "probe_registry name": item(NAMES, lambda names: probe_registry(COUNTS, names=names)),
    "from_portfolios columns": argument(
        lambda v: AnalyticsTable.from_portfolios(PORTFOLIOS, columns=v)
    ),
    "from_portfolios column": item(
        NAMES, lambda names: AnalyticsTable.from_portfolios(PORTFOLIOS, columns=names)
    ),
    "from_reports columns": argument(lambda v: AnalyticsTable.from_reports(REPORTS, columns=v)),
    "from_reports column": item(
        NAMES, lambda names: AnalyticsTable.from_reports(REPORTS, columns=names)
    ),
    "from_reports label": argument(
        lambda v: written(AnalyticsTable.from_reports([(v, REPORTS[0][1])]))
    ),
    "PortfolioSummary label": argument(
        lambda v: record_written(PortfolioSummary(v, CitationVector(COUNTS)))
    ),
    "PortfolioSummary vector": argument(lambda v: record_written(PortfolioSummary("a", v))),
    "PortfolioSummary vector item": item(
        COUNTS, lambda counts: record_written(PortfolioSummary("a", counts))
    ),
    "PortfolioSummary.from_summary label": argument(
        lambda v: record_written(PortfolioSummary.from_summary(v, *SUMMARY))
    ),
    "parse_input JSON label": json_read,
    **{
        f"emit_table precision {format}": argument(lambda v, f=format: emit_table(TABLE, f, v))
        for format in ("tsv", "csv", "json")
    },
    **{
        f"emit_matrix precision {format}": argument(
            lambda v, f=format: emit_matrix(NAMES, MATRIX, f, v)
        )
        for format in ("tsv", "csv", "json")
    },
    "emit_matrix name": item(NAMES, lambda names: matrix_written(names, MATRIX)),
    "emit_matrix cell": item(
        [cell for row in MATRIX for cell in row],
        lambda cells: matrix_written(NAMES, [cells[:2], cells[2:]]),
    ),
    "pearson_matrix columns": argument(lambda v: pearson_matrix(TABLE, v)),
    "pearson_matrix column": item(NAMES, lambda names: pearson_matrix(TABLE, names)),
    "check_tolerance": argument(check_tolerance),
    **{
        f"PortfolioSummary.from_summary {name}": summary_field(
            k, lambda *fields: PortfolioSummary.from_summary("a", *fields)
        )
        for k, name in enumerate(["P", "i", "eta", "h"])
    },
    **{
        f"reconstruct_from_summary {name}": summary_field(k, reconstruct_from_summary)
        for k, name in enumerate(["P", "i", "eta", "h"])
    },
    "PlotSeries name": argument(lambda v: plotted([PlotSeries(v, POINTS)])),
    "emit_loglog_svg title": argument(lambda v: plotted([PlotSeries("h", POINTS)], v)),
    "PlotSeries points": argument(lambda v: PlotSeries("h", v)),
    "PlotSeries point": item(POINTS, lambda points: PlotSeries("h", points)),
    "PlotSeries coordinate": item([1, 1.0], lambda point: PlotSeries("h", [tuple(point)])),
    "PlotSeries fit": argument(lambda v: PlotSeries("h", POINTS, v)),
    "PlotSeries fit slope": argument(
        lambda v: emit_loglog_svg([PlotSeries("h", POINTS, ExponentEstimate(v, 0.0, 0.0))])
    ),
    "PlotSeries fit intercept": argument(
        lambda v: emit_loglog_svg([PlotSeries("h", POINTS, ExponentEstimate(2.0, v, 0.0))])
    ),
    "emit_loglog_svg coordinate with a fit": item(
        [1, 1.0], lambda point: emit_loglog_svg([PlotSeries("h", [tuple(point), *POINTS], FIT)])
    ),
}


def hostile_examples(test):
    for value in reversed(HOSTILE):
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@hostile_examples
@given(value=values)
@settings(derandomize=True, max_examples=20, deadline=None)
def test_an_entry_point_returns_or_raises_a_scindex_error(entry, value):
    for call in entry(value):
        try:
            call()
        except ScindexError:
            continue
        # A bool is a truth value, never a number or a count.
        assert not isinstance(value, (bool, np.bool_)), f"{value!r} was taken as a number"


# Each list argument of an entry point, as (call, list).
LIST_ARGUMENTS = {
    "from_portfolios": (AnalyticsTable.from_portfolios, PORTFOLIOS),
    "from_reports": (AnalyticsTable.from_reports, REPORTS),
    "emit_records": (emit_records, PORTFOLIOS),
    "emit_matrix names": (lambda names: emit_matrix(names, MATRIX), NAMES),
    "emit_matrix rows": (lambda rows: emit_matrix(NAMES, rows, "json"), list(MATRIX)),
    "emit_loglog_svg": (emit_loglog_svg, [PlotSeries("h", POINTS), PlotSeries("C", POINTS, FIT)]),
    "fit_loglog": (lambda xs: fit_loglog(xs, iter([1.0, 4.0, 9.0])), LAMBDAS),
    "verify_dimension lambdas": (lambda lams: verify_dimension(C, COUNTS, lams), LAMBDAS),
    "probe_registry lambdas": (lambda lams: probe_registry(COUNTS, lams), LAMBDAS),
}


@pytest.mark.parametrize("call, items", LIST_ARGUMENTS.values(), ids=LIST_ARGUMENTS.keys())
def test_a_one_shot_iterator_gives_what_its_list_gives(call, items):
    assert call(iter(items)) == call(items)
