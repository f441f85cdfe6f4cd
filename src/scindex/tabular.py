"""Tabular ingestion and report emission.

Input formats (form auto-detected from the header / record keys):

* wide CSV      ``author,citations`` with semicolon-delimited counts
                (``"4;2;1"``; commas would collide with CSV framing)
* summary CSV   ``author,P,i,eta`` or ``author,P,i,eta,h``
* JSON          array of objects, either ``{"author": ..., "citations":
                [4, 2, 1]}`` or ``{"author": ..., "P": ..., "i": ...,
                "eta": ..., "h": ...}`` -- one form per file

Table output (TSV/CSV/JSON) always carries a dimension row rendered
with the exact dimension format (``[P]``, ``[P^3/2]``, ``dimensionless``,
``[P^2]``).  Reals print with ``precision`` decimals (default 2,
matching the usual published presentation); integral values print bare;
``precision=None`` prints shortest round-trip representations.  JSON
cells always carry exact float values plus the rendered dimension.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Sequence

import numpy as np

from .analytics import AnalyticsTable, PortfolioSummary
from .errors import DomainError, FormatError, NegativeCountError
from .indicators import CitationVector, registry_symbols

__all__ = [
    "WIDE_HEADER",
    "SUMMARY_HEADER",
    "parse_input",
    "emit_records",
    "emit_table",
    "emit_matrix",
    "table_rows",
    "format_magnitude",
]

WIDE_HEADER: tuple[str, ...] = ("author", "citations")
SUMMARY_HEADER: tuple[str, ...] = ("author", "P", "i", "eta")
SUMMARY_HEADER_H: tuple[str, ...] = SUMMARY_HEADER + ("h",)


def _decode(data: str | bytes) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _parse_counts(cell: str, line: int) -> CitationVector:
    items = list(filter(None, map(str.strip, cell.split(";"))))
    try:
        return CitationVector(map(int, items))
    except ValueError:
        bad = next(item for item in items if not _is_int_literal(item))
        raise FormatError(f"invalid citation count {bad!r}", line) from None
    except NegativeCountError as exc:
        raise NegativeCountError(str(exc), line) from None


def _is_int_literal(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _parse_real(cell: str, name: str, line: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise FormatError(f"invalid {name} value {cell!r}", line) from None


def _parse_int(cell: str, name: str, line: int) -> int:
    try:
        return int(cell)
    except ValueError:
        raise FormatError(f"invalid {name} value {cell!r}", line) from None


def _summary_record(
    label: str, p: int, i: float, eta: float, h: float | None, line: int
) -> PortfolioSummary:
    try:
        return PortfolioSummary.from_summary(label, p, i, eta, h=h)
    except DomainError as exc:
        raise FormatError(str(exc), line) from None


def _parse_csv(text: str) -> list[PortfolioSummary]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty input", 1) from None
    header = tuple(h.strip() for h in header)
    records: list[PortfolioSummary] = []
    if header == WIDE_HEADER:
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise FormatError(f"expected 2 fields, got {len(row)}", line)
            records.append(
                PortfolioSummary.from_vector(row[0], _parse_counts(row[1], line))
            )
        return records
    if header in (SUMMARY_HEADER, SUMMARY_HEADER_H):
        expected = len(header)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != expected:
                raise FormatError(f"expected {expected} fields, got {len(row)}", line)
            p = _parse_int(row[1], "P", line)
            i = _parse_real(row[2], "i", line)
            eta = _parse_real(row[3], "eta", line)
            h: float | None = None
            if expected == 5 and row[4].strip() != "":
                h = _parse_real(row[4], "h", line)
            records.append(_summary_record(row[0], p, i, eta, h, line))
        return records
    raise FormatError(
        "header must be 'author,citations' or 'author,P,i,eta[,h]', "
        f"got {','.join(header)!r}",
        1,
    )


def _parse_json(text: str) -> list[PortfolioSummary]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise FormatError("expected a JSON array of records")
    records: list[PortfolioSummary] = []
    form: str | None = None
    for number, entry in enumerate(payload, start=1):
        if not isinstance(entry, dict) or "author" not in entry:
            raise FormatError("record must be an object with an 'author' key", number)
        label = str(entry["author"])
        if "citations" in entry:
            record_form = "wide"
        elif {"P", "i", "eta"} <= set(entry):
            record_form = "summary"
        else:
            raise FormatError(
                "record needs either 'citations' or the keys P, i, eta", number
            )
        if form is None:
            form = record_form
        elif form != record_form:
            raise FormatError("mixed wide and summary records in one file", number)
        if record_form == "wide":
            counts = entry["citations"]
            if not isinstance(counts, list):
                raise FormatError("'citations' must be an array of integers", number)
            try:
                records.append(PortfolioSummary.from_vector(label, counts))
            except NegativeCountError as exc:
                raise NegativeCountError(str(exc), number) from None
            except TypeError as exc:
                raise FormatError(str(exc), number) from None
        else:
            h = entry.get("h")
            papers = entry["P"]
            if isinstance(papers, bool) or (
                isinstance(papers, float) and not papers.is_integer()
            ):
                raise FormatError(f"paper count must be an integer, got {papers!r}", number)
            try:
                records.append(
                    PortfolioSummary.from_summary(
                        label, int(papers), float(entry["i"]), float(entry["eta"]),
                        h=None if h is None else float(h),
                    )
                )
            except DomainError as exc:
                raise FormatError(str(exc), number) from None
            except (TypeError, ValueError) as exc:
                raise FormatError(f"invalid summary record: {exc}", number) from None
    return records


def parse_input(data: str | bytes, format: str = "csv") -> list[PortfolioSummary]:
    """Parse portfolio records from CSV or JSON text."""
    text = _decode(data)
    if format == "csv":
        return _parse_csv(text)
    if format == "json":
        return _parse_json(text)
    raise FormatError(f"unknown input format {format!r}")


def emit_records(records: Sequence[PortfolioSummary], format: str = "csv") -> str:
    """Write records back out in the same shape :func:`parse_input` accepts."""
    forms = {record.is_raw for record in records}
    if len(forms) > 1:
        raise FormatError("cannot emit a mix of wide and summary records")
    wide = forms == {True}
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if wide:
            writer.writerow(WIDE_HEADER)
            for record in records:
                assert record.vector is not None
                writer.writerow(
                    [record.label, ";".join(str(c) for c in record.vector.counts)]
                )
        else:
            writer.writerow(SUMMARY_HEADER_H)
            for record in records:
                writer.writerow(
                    [
                        record.label,
                        record.papers,
                        repr(record.impact),
                        repr(record.evenness),
                        "" if record.h is None else repr(record.h),
                    ]
                )
        return out.getvalue()
    if format == "json":
        rows: list[dict[str, Any]] = []
        for record in records:
            if wide:
                assert record.vector is not None
                rows.append(
                    {"author": record.label, "citations": list(record.vector.counts)}
                )
            else:
                row: dict[str, Any] = {
                    "author": record.label,
                    "P": record.papers,
                    "i": record.impact,
                    "eta": record.evenness,
                }
                if record.h is not None:
                    row["h"] = record.h
                rows.append(row)
        return json.dumps(rows, indent=2) + "\n"
    raise FormatError(f"unknown record format {format!r}")


def format_magnitude(value: float, precision: int | None) -> str:
    """Render one magnitude: bare integers, fixed decimals, or shortest repr."""
    if precision is not None and float(value).is_integer():
        return str(int(value))
    return _format_real(value, precision)


def _format_real(value: float, precision: int | None) -> str:
    if precision is None:
        return repr(float(value))
    return f"{value:.{precision}f}"


def table_rows(table: AnalyticsTable) -> list[dict[str, Any]]:
    """JSON-ready rows: exact values, rendered dimension, derived-cell flags."""
    rows = []
    for label, cells, recon in zip(table.labels, table.cells, table.reconstructed):
        row: dict[str, Any] = {"author": label}
        for name, quantity in zip(table.columns, cells):
            cell: dict[str, Any] = {
                "value": quantity.magnitude,
                "dimension": str(quantity.dim),
            }
            if name in recon:
                cell["reconstructed"] = True
            row[name] = cell
        rows.append(row)
    return rows


def emit_table(
    table: AnalyticsTable, format: str = "tsv", precision: int | None = 2
) -> str:
    """Render a table with its mandatory dimension row."""
    if format == "json":
        return json.dumps(table_rows(table), indent=2) + "\n"
    if format not in ("tsv", "csv"):
        raise FormatError(f"unknown table format {format!r}")
    dims = [str(q.dim) for q in (table.cells[0] if table.cells else ())]
    if not table.cells:
        # Dimension row still required; fall back to the registry dims.
        symbols = registry_symbols()
        dims = [str(symbols[name]) if name in symbols else "" for name in table.columns]
    lines = [
        ["author", *table.columns],
        ["dimensions", *dims],
    ]
    for label, cells in zip(table.labels, table.cells):
        lines.append(
            [label, *(format_magnitude(q.magnitude, precision) for q in cells)]
        )
    if format == "tsv":
        return "".join("\t".join(line) + "\n" for line in lines)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(lines)
    return out.getvalue()


def emit_matrix(
    names: Sequence[str],
    matrix: np.ndarray,
    format: str = "tsv",
    precision: int | None = 2,
) -> str:
    """Render a correlation matrix with row and column headers."""
    if format == "json":
        payload = {
            "columns": list(names),
            "matrix": [[float(x) for x in row] for row in np.asarray(matrix)],
        }
        return json.dumps(payload, indent=2) + "\n"
    if format not in ("tsv", "csv"):
        raise FormatError(f"unknown matrix format {format!r}")
    lines = [["correlation", *names]]
    for name, row in zip(names, np.asarray(matrix)):
        lines.append([name, *(_format_real(float(x), precision) for x in row)])
    if format == "tsv":
        return "".join("\t".join(line) + "\n" for line in lines)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(lines)
    return out.getvalue()
