"""Definitional oracles: the rank-index scans the h and g kernels are checked
against, g's stopping run that its replication law is stated from, the
ladder rows the reports are checked against, and the table rows and fields
the table writers are checked against."""

import math
from itertools import groupby

from scindex import registry_symbols
from scindex.tabular import format_magnitude


def h_brute(counts):
    """Counting definition: largest k with at least k papers cited >= k times."""
    return max(
        (k for k in range(len(counts) + 1) if sum(1 for c in counts if c >= k) >= k),
        default=0,
    )


def g_brute(counts):
    """Definitional scan: largest k whose top-k papers sum to >= k^2."""
    ranked = sorted(counts, reverse=True)
    best = 0
    for k in range(1, len(ranked) + 1):
        if sum(ranked[:k]) >= k * k:
            best = k
    return best


def g_stopping_run(counts):
    """g's stopping run: the first run of equal counts, largest first, in
    which some rank fails g's test, as (R, S, v), with R papers and S
    citations before it and v its count; None when every rank passes.

    Rank R + k of that run passes iff S + k*v >= (R + k)^2, so the real-valued
    g is R + (v - 2R + sqrt(D))/2 with D = v^2 - 4Rv + 4S.
    """
    papers = cites = 0
    for v, run in groupby(sorted(counts, reverse=True)):
        m = len(list(run))
        if cites + m * v < (papers + m) ** 2:
            return papers, cites, v
        papers += m
        cites += m * v
    return None


def ladder_row(p, c, i, x, e, s, eta, h=None, g=None):
    """The report row of the ladder values, each passed through ``float()``:
    the rank indices h and g where given, and z and i_E derived, in registry
    order.  An OverflowError of a conversion propagates."""
    z = float((eta * i * i * p) ** (1.0 / 3.0))
    ranks = () if h is None else (float(h),) if g is None else (float(h), float(g))
    head = float(p), float(c), float(i)
    return (*head, *ranks, float(x), float(e), float(s), float(eta), z, math.sqrt(e))


def table_rows(table):
    """JSON-ready rows of an analytics table: exact values, rendered dimension,
    and ``"reconstructed": true`` on each cell rebuilt from a summary triple."""
    rows = []
    for label, values, recon in zip(table.labels, table.rows, table.reconstructed):
        row = {"author": label}
        for name, dim, value in zip(table.columns, table.dims, values):
            cell = {"value": value, "dimension": str(dim)}
            if name in recon:
                cell["reconstructed"] = True
            row[name] = cell
        rows.append(row)
    return rows


def table_lines(table, labeled, precision):
    """The fields of a delimited table, each cell rendered by ``format_magnitude``
    from the (label, {column: Quantity}) pairs the table was built from."""
    if labeled:
        dims = [str(labeled[0][1][name].dim) for name in table.columns]
    else:
        symbols = registry_symbols()
        dims = [str(symbols[n]) if n in symbols else "" for n in table.columns]
    lines = [["author", *table.columns], ["dimensions", *dims]]
    for label, report in labeled:
        lines.append(
            [label, *(format_magnitude(report[n].magnitude, precision) for n in table.columns)]
        )
    return lines


def tsv_text(lines):
    """Linear TSV, field by field: backslash, tab, line feed and carriage
    return written as two-character escapes, each line ended by a line feed."""
    def escaped(field):
        return (
            field.replace("\\", "\\\\")
            .replace("\t", "\\t")
            .replace("\n", "\\n")
            .replace("\r", "\\r")
        )

    return "".join("\t".join(map(escaped, line)) + "\n" for line in lines)
