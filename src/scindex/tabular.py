"""Tabular ingestion and report emission.

Input formats (form auto-detected from the header / record keys):

* wide CSV      ``author,citations`` with semicolon-delimited counts
                (``"4;2;1"``; commas would collide with CSV framing)
* summary CSV   ``author,P,i,eta`` or ``author,P,i,eta,h``
* JSON          array of objects, either ``{"author": ..., "citations":
                [4, 2, 1]}`` or ``{"author": ..., "P": ..., "i": ...,
                "eta": ..., "h": ...}`` -- one form per file

Both CSV forms are read by columns.  A text with no quote, no carriage
return and no line past ``csv.field_size_limit()`` is split at ``\\n`` and
``,`` with ``str.split``; any other text is read by ``csv.reader``.  The two
give the same columns: the ``excel`` dialect treats only ``,``, ``"``,
``\\r`` and ``\\n`` specially (NUL, ``\\x0b`` and ``\\u2028`` are data), so
in such a text each non-empty line is one row and the first line, even a
blank one, is the header.  Each wide cell's item texts are counted,
``int`` reads each distinct text of the file once, and texts that spell
one integer (``4``, ``04``, ``+4``) add up to one run of the
:class:`CitationVector`; each summary column is converted and checked at
once.  A file with any defect (a blank, bad or negative item, a ragged
row, a repeated label, a value out of range) is read again row by row,
each cell by :func:`parse_counts`, so its error names its line, the first
bad item of its cell and a negative count's first occurrence.  A JSON
array is read once, each record checked as it is read, so its first defect
names its record.  A wide record's citations are tallied at once, with no
test of each item's type, when two facts prove each item an int: their sum
is an ``int`` (a float makes the sum a float, and any other item but a bool
raises), and the file holds neither ``true`` nor ``false``, the only tokens
that give a bool.  Any other list is read item by item.

Table output (TSV/CSV/JSON) always carries a dimension row rendered
with the exact dimension format (``[P]``, ``[P^3/2]``, ``dimensionless``,
``[P^2]``).  Reals print with ``precision`` decimals (default 2,
matching the usual published presentation; at most ``MAX_PRECISION``,
by :func:`check_precision`); integral values print bare;
``precision=None`` prints shortest round-trip representations.  That
rule is :func:`format_magnitude`'s, per cell, but a table takes one ``%``
directive per column (see :func:`_format_column`), and every TSV body,
all-text ones too, is one ``%`` format of a row template repeated for
every row.  JSON cells always carry exact float values and the rendered
dimension; ``json`` is imported by its readers and writers on first use.
TSV fields escape backslash, tab, line feed and carriage return as
``\\\\``, ``\\t``, ``\\n`` and ``\\r`` (the Linear TSV convention); CSV
quotes them instead.
"""

from __future__ import annotations

import csv
import io
import re
import sys
from collections import Counter
from itertools import chain, repeat
from typing import Any, Iterable, Sequence

from .analytics import AnalyticsTable, PortfolioSummary, _paper_count, _summaries_pass
from .dimension import count, finite, name_list, real, text
from .errors import DomainError, FormatError, NegativeCountError, ScindexError, shown
from .indicators import CitationVector, _sorted_runs

WIDE_HEADER: tuple[str, ...] = ("author", "citations")
SUMMARY_HEADER: tuple[str, ...] = ("author", "P", "i", "eta")
SUMMARY_HEADER_H: tuple[str, ...] = SUMMARY_HEADER + ("h",)

# Most bytes of input the CLI reads.  Reading, checking and emitting a table
# peaks at up to about 80 bytes of resident memory per input byte to TSV,
# 115 to CSV and 260 to JSON (summary CSV rows of 13 bytes), so an input at
# this limit peaks at about 640 MiB, 920 MiB and 2 GiB.
MAX_INPUT_BYTES = 8 * 2**20

# Most decimals a table writer prints.  A double has at most 17 significant
# digits, so more print only noise; precision None prints the exact value.
MAX_PRECISION = 17


def _decode(data: str | bytes) -> str:
    """Text of the input, without a leading byte-order mark."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise FormatError(f"input is not UTF-8: {exc.reason}", line) from None
    elif not data.isascii():
        try:  # a str may hold a lone surrogate, which no writer can encode
            data.encode("utf-8")
        except UnicodeEncodeError as exc:
            line = data.count("\n", 0, exc.start) + 1
            raise FormatError(f"input is not UTF-8: {exc.reason}", line) from None
    return data.removeprefix("\ufeff")


def _add_record(
    records: list[PortfolioSummary],
    first_seen: dict[str, int],
    record: PortfolioSummary,
    position: int,
    unit: str,
) -> None:
    """Append ``record``, at ``position`` in ``unit``s, unless its label was given."""
    first = first_seen.setdefault(record.label, position)
    if first != position:
        raise FormatError(f"duplicate author {shown(record.label)}, first given at {unit} {first}")
    records.append(record)


def _located(exc: ScindexError, **where: int) -> ScindexError:
    """``exc`` at ``line=`` or ``record=``, a FormatError unless a negative count."""
    located = NegativeCountError if isinstance(exc, NegativeCountError) else FormatError
    return located(str(exc), **where)


def _plain(text: str) -> bool:
    """Whether ``text`` is free of the digit separators (``1_000``) of Python
    literals and of non-ASCII characters (``int`` would read ``"١٠"`` as 10).
    """
    return "_" not in text and text.isascii()


def number(kind: type, text: str) -> float | int:
    """``kind(text)`` for a :func:`_plain` number; surrounding whitespace
    is skipped, as ``int`` and ``float`` skip it.

    Raises ``ValueError`` as ``int`` and ``float`` do.
    """
    if not _plain(text.strip()):
        raise ValueError(f"invalid literal {text!r}")
    return kind(text)


def parse_counts(cell: str) -> CitationVector:
    """The vector of a ``"4;2;1"`` list, each stripped item read by ``int``;
    blank items are skipped, the first bad one is a FormatError and the first
    negative one a NegativeCountError.
    """
    counts = []
    for item in filter(None, map(str.strip, cell.split(";"))):
        try:
            counts.append(number(int, item))
        except ValueError:
            raise FormatError(f"invalid citation count {shown(item)}") from None
    return CitationVector(counts)


def _cell_runs(cells: Sequence[str]) -> list[tuple[tuple[int, int], ...]]:
    """The runs of each :func:`_plain` ``"4;2;1"`` cell of a wide CSV column,
    largest count first.

    Each cell's item texts are tallied, and ``int`` reads each distinct
    text of all the cells once; it skips the ASCII whitespace around an
    item.  Texts that spell one integer (``4``, ``04``, ``+4``) add up to
    one run.  Raises ``ValueError`` for a blank, bad or negative item.
    """
    tallies = [Counter(cell.split(";")) for cell in cells]
    texts = set().union(*tallies)
    value = dict(zip(texts, map(int, texts)))
    if min(value.values()) < 0:
        raise ValueError("negative citation count")
    if len(set(value.values())) == len(value):
        runs = (zip(map(value.__getitem__, tally), tally.values()) for tally in tallies)
    else:  # "4", "04" and "+4" are one count
        runs = (Counter(map(value.__getitem__, tally.elements())).items() for tally in tallies)
    return [tuple(sorted(pairs, reverse=True)) for pairs in runs]


def _summary_fields(papers: Any, impact: Any, evenness: Any, h: Any) -> tuple:
    """The converted fields of a summary record; ``h`` is None when none was published."""
    return (
        _field(int, papers, "P"),
        _field(float, impact, "i"),
        _field(float, evenness, "eta"),
        None if h is None else _field(float, h, "h"),
    )


def _field(kind: type, value: Any, name: str) -> float | int:
    """Summary field ``name`` as ``kind``: text goes through :func:`number`, any
    other value through the value rule of the field, :func:`real` for a float
    field and :func:`_paper_count` for P.
    """
    try:
        if isinstance(value, str):
            return number(kind, value)
        return real(value, name) if kind is float else _paper_count(value)
    except (ValueError, DomainError):
        # real() refuses an int only past the float range, and int() refuses
        # a run of ASCII digits only past its digit limit, which is past that
        # range too.  The digits are not shown.
        digit_run = isinstance(value, str) and value.strip().isdigit() and value.isascii()
        if type(value) is int or digit_run:
            raise FormatError(f"{name} value exceeds the floating-point range") from None
        raise FormatError(f"invalid {name} value {shown(value)}") from None


def _parse_csv(text: str) -> list[PortfolioSummary]:
    records = _csv_columns(text)
    if records is not None:
        return records
    reader = csv.reader(io.StringIO(text))
    try:
        return _csv_records(reader)
    except csv.Error as exc:
        raise FormatError(str(exc), reader.line_num) from None


def _csv_columns(text: str) -> list[PortfolioSummary] | None:
    """The records of a well-formed CSV of either form, each column read and
    checked at once: the citation cells by :func:`_cell_runs`, the summary
    columns by :func:`_summaries_pass`.  A text that :func:`_split_columns`
    cannot split is read by ``csv.reader``.

    Any other input gives None and is read again row by row by
    :func:`_csv_records`, the one place that raises located errors.
    """
    try:
        header, columns = _split_columns(text) or _read_columns(text)
        header = tuple(map(str.strip, header))
        if header not in (WIDE_HEADER, SUMMARY_HEADER, SUMMARY_HEADER_H) or not columns:
            return None
        labels, *columns = columns
        texts = list(map("".join, columns))
        if len(set(labels)) != len(labels) or not all(map(_plain, texts)):
            return None
        if header == WIDE_HEADER:
            vectors = map(CitationVector._of_runs, _cell_runs(columns[0]))
            return list(map(PortfolioSummary._checked, labels, vectors))
        papers, impacts, etas, *published = columns
        papers = list(map(int, papers))
        impacts, etas = list(map(float, impacts)), list(map(float, etas))
        h = [None] * len(papers)
        if published:
            try:
                h = list(map(float, published[0]))
            except ValueError:  # a row publishes no h
                h = [float(c) if c.strip() else None for c in published[0]]
    except (StopIteration, csv.Error, ValueError):
        return None
    if not _summaries_pass(papers, impacts, etas, h):
        return None
    # Only a text with a minus sign reads as -0.0, which the row reader gives as 0.0.
    if "-" in texts[1]:
        impacts = list(map(abs, impacts))
    if published and "-" in texts[3]:
        h = [x if x is None else abs(x) for x in h]
    return list(map(PortfolioSummary._checked, labels, repeat(None), papers, impacts, etas, h))


def _split_columns(text: str) -> tuple[list[str], list[list[str]]] | None:
    """The header fields and the columns of a CSV text, split at ``\\n`` and
    ``,`` as ``csv.reader`` reads it; no columns if it has no rows or a ragged
    one.  None for a text with a quote, a carriage return or a line longer
    than ``csv.field_size_limit()``.
    """
    if '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None  # the reader names the line of a field past the limit
    header, rows = lines[0].split(","), list(filter(None, lines[1:]))
    width = len(header)
    if set(map(str.count, rows, repeat(","))) != {width - 1}:
        return header, []
    cells = ",".join(rows).split(",")
    return header, [cells[j::width] for j in range(width)]


def _read_columns(text: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """:func:`_split_columns` of any text, by ``csv.reader``."""
    reader = csv.reader(io.StringIO(text))
    header, rows = next(reader), list(filter(None, reader))
    return header, list(zip(*rows)) if set(map(len, rows)) == {len(header)} else []


def _csv_records(reader: Any) -> list[PortfolioSummary]:
    """The records of a :func:`csv.reader`; an error names the line its row starts on."""
    records: list[PortfolioSummary] = []
    first_seen: dict[str, int] = {}
    line = 1
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError("empty input")
        header = tuple(h.strip() for h in header)
        if header not in (WIDE_HEADER, SUMMARY_HEADER, SUMMARY_HEADER_H):
            raise FormatError(
                "header must be 'author,citations' or 'author,P,i,eta[,h]', "
                f"got {shown(','.join(header))}"
            )
        end = reader.line_num
        for row in reader:
            line, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(f"expected {len(header)} fields, got {len(row)}")
            if header == WIDE_HEADER:
                record = PortfolioSummary(row[0], parse_counts(row[1]))
            else:
                h = row[4] if len(row) == 5 and row[4].strip() else None
                record = PortfolioSummary.from_summary(row[0], *_summary_fields(*row[1:4], h))
            _add_record(records, first_seen, record, line, "line")
    except ScindexError as exc:
        raise _located(exc, line=line) from None
    return records


def _parse_json(source: str) -> list[PortfolioSummary]:
    import json
    try:
        payload = json.loads(source)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", exc.lineno) from None
    except RecursionError as exc:
        raise FormatError(f"invalid JSON: {exc}", 1) from None  # nesting has no position
    except ValueError as exc:
        # An integer past the digit limit, which the decoder reports without
        # a position: its line is that of the first over-long digit run.
        run = re.search(r"\d{%d,}" % (sys.get_int_max_str_digits() + 1), source)
        line = source.count("\n", 0, run.start()) + 1 if run else 1
        raise FormatError(f"invalid JSON: {exc}", line) from None
    if not isinstance(payload, list):
        raise FormatError("expected a JSON array of records", 1)
    # Only the tokens true and false give a bool, the one item that is no
    # int but sums as one; a file without them has no bool to find.
    return _json_records(payload, ints="true" not in source and "false" not in source)


def _json_records(payload: list, ints: bool = False) -> list[PortfolioSummary]:
    """The records of a JSON array, each read and checked in turn; the first
    error raises and names its record.

    When ``ints`` (the array holds no bool), a non-empty citations list
    whose sum is an ``int`` holds only ints, and is tallied at once into
    the runs of its vector; its first negative count raises.  Any other
    list is read by :class:`PortfolioSummary`, which names its first bad
    item.
    """
    records: list[PortfolioSummary] = []
    first_seen: dict[str, int] = {}
    try:
        for n, entry in enumerate(payload, start=1):
            if not (isinstance(entry, dict) and isinstance(entry.get("author"), str)):
                raise FormatError("record must be an object with an 'author' string")
            wide = "citations" in entry
            if not (wide or {"P", "i", "eta"} <= entry.keys()):
                raise FormatError("record needs either 'citations' or the keys P, i, eta")
            if records and wide != (records[0].vector is not None):
                raise FormatError("mixed wide and summary records in one file")
            label = entry["author"]
            if not wide:
                fields = _summary_fields(entry["P"], entry["i"], entry["eta"], entry.get("h"))
                record = PortfolioSummary.from_summary(label, *fields)
            elif isinstance(citations := entry["citations"], list):
                if ints and citations and _int_sum(citations):
                    text(label, "portfolio label")  # checked first, as PortfolioSummary does
                    vector = CitationVector._of_runs(_sorted_runs(Counter(citations)))
                    record = PortfolioSummary._checked(label, vector)
                else:
                    record = PortfolioSummary(label, citations)
            else:
                raise FormatError("'citations' must be an array of integers")
            _add_record(records, first_seen, record, n, "record")
    except ScindexError as exc:
        raise _located(exc, record=n) from None
    return records


def _int_sum(values: list) -> bool:
    """Whether the sum of ``values`` is an ``int``, as it is when each item is
    an int or a bool: a float makes it a float, and any other item raises."""
    try:
        return type(sum(values)) is int
    except (TypeError, OverflowError):  # 10**400 + 0.5 overflows
        return False


def parse_input(data: str | bytes, format: str = "csv") -> list[PortfolioSummary]:
    """Parse portfolio records from CSV or JSON text.

    A leading UTF-8 byte-order mark is ignored.  An author label may be
    given once per input.
    """
    text = _decode(data)
    if format == "csv":
        return _parse_csv(text)
    if format == "json":
        return _parse_json(text)
    raise FormatError(f"unknown input format {format!r}")


def emit_records(records: Iterable[PortfolioSummary], format: str = "csv") -> str:
    """Write records back out in the same shape :func:`parse_input` accepts."""
    records = tuple(records)
    forms = {record.vector is not None for record in records}
    if len(forms) > 1:
        raise FormatError("cannot emit a mix of wide and summary records")
    if format not in ("csv", "json"):
        raise FormatError(f"unknown record format {format!r}")
    if forms == {True}:
        header, rows = WIDE_HEADER, [(r.label, r.vector.counts) for r in records]
    else:
        header = SUMMARY_HEADER_H
        rows = [(r.label, r.papers, r.impact, r.evenness, r.h) for r in records]
    if format == "json":
        import json
        objects = [{k: v for k, v in zip(header, row) if v is not None} for row in rows]
        return json.dumps(objects, indent=2) + "\n"
    return _csv_text([header, *([label, *map(_csv_cell, values)] for label, *values in rows)])


def _csv_cell(value: Any) -> str:
    """A record value as CSV text: counts joined by semicolons, None blank."""
    if isinstance(value, tuple):
        return ";".join(map(str, value))
    return "" if value is None else repr(value)


def _csv_text(lines: Sequence[Sequence[str]]) -> str:
    """CSV with "\\n" line ends that ``csv.reader`` reads back field for field.

    The writer quotes only fields holding a delimiter, a quote or a
    character of its line terminator, so a row with a carriage return
    in a field is written fully quoted.
    """
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for line in lines:
        (quoted if any("\r" in field for field in line) else plain).writerow(line)
    return out.getvalue()


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
_TSV_SPECIALS = tuple(map(chr, _TSV_ESCAPES))


def _tsv_text(lines: Sequence[Sequence[str]]) -> str:
    """TSV with "\\n" line ends and escaped fields (the Linear TSV convention).

    A backslash, tab, line feed or carriage return in a field is written
    as ``\\\\``, ``\\t``, ``\\n`` or ``\\r``, so each line is one row and
    each tab ends a field.
    """
    return "".join(
        "\t".join(field.translate(_TSV_ESCAPES) for field in line) + "\n"
        for line in lines
    )


def check_precision(precision: object) -> int | None:
    """``precision`` as the table writers take it: None, or a value read by
    :func:`count` from 0 to :data:`MAX_PRECISION`; any other value is a
    :class:`DomainError`."""
    if precision is None:
        return None
    value = count(precision, "precision values")
    if value < 0:
        raise DomainError(f"precision must be >= 0, got {shown(value)}")
    if value > MAX_PRECISION:
        raise DomainError(f"precision must be <= {MAX_PRECISION}, got {shown(value)}")
    return value


def format_magnitude(value: float, precision: int | None) -> str:
    """Render one magnitude: bare integers, fixed decimals, or shortest repr."""
    if precision is not None and float(value).is_integer():
        return str(int(value))
    return _format_real(value, precision)


def _format_real(value: float, precision: int | None) -> str:
    if precision is None:
        return repr(float(value))
    return f"{value:.{precision}f}"


def _json_table(table: AnalyticsTable) -> str:
    """The table as a JSON array of rows, written one row at a time.

    A row maps ``"author"`` to its label and each column to its cell,
    ``{"value": ..., "dimension": ...}`` plus ``"reconstructed": true`` for
    a value rebuilt from a summary triple.  Each column's text around its
    value is rendered once, and each set of reconstructed flags gives one
    row template, so a row costs one ``%`` format: labels go through
    ``json.dumps`` and values through ``repr``, exactly as the ``json``
    module writes them.
    """
    import json
    if not table.rows:
        return "[]\n"
    # A JSON object holds a repeated column once, where it first appears.
    names = tuple(dict.fromkeys(table.columns))
    first = [table.columns.index(name) for name in names]
    cells = {}
    for name, j in zip(names, first):
        head = (
            f",\n    {_json_literal(name)}: {{\n      \"value\": %r,"
            f"\n      \"dimension\": {_json_literal(str(table.dims[j]))}"
        )
        cells[name] = (head + "\n    }", head + ',\n      "reconstructed": true\n    }')
    templates: dict[frozenset[str], str] = {}
    out = []
    for label, values, recon in zip(table.labels, table.rows, table.reconstructed):
        template = templates.get(recon)
        if template is None:
            template = templates[recon] = (
                '  {\n    "author": %s'
                + "".join(cells[name][name in recon] for name in names)
                + "\n  }"
            )
        if len(names) < len(values):
            values = [values[j] for j in first]
        out.append(template % (json.dumps(label), *values))
    return "[\n" + ",\n".join(out) + "\n]\n"


def _json_literal(text: str) -> str:
    """``text`` as a JSON string, escaped for use in a ``%`` template."""
    import json
    return json.dumps(text).replace("%", "%%")


def emit_table(
    table: AnalyticsTable, format: str = "tsv", precision: int | None = 2
) -> str:
    """Render a table with its mandatory dimension row; ``precision`` is
    read by :func:`check_precision`."""
    precision = check_precision(precision)
    if format == "json":
        return _json_table(table)
    if format not in ("tsv", "csv"):
        raise FormatError(f"unknown table format {format!r}")
    head = [
        ["author", *table.columns],
        ["dimensions", *("" if dim is None else str(dim) for dim in table.dims)],
    ]
    formats = [_format_column(column, precision) for column in zip(*table.rows)]
    if format == "csv":
        cells = [v if d == "%s" else list(map(d.__mod__, v)) for d, v in formats]
        return _csv_text(head + list(zip(table.labels, *cells)))
    labels = table.labels
    if any(map("".join(labels).__contains__, _TSV_SPECIALS)):
        labels = [label.translate(_TSV_ESCAPES) for label in labels]
    # One template line per row, with labels and cells as its arguments.
    line = "\t".join(["%s", *(directive for directive, _ in formats)]) + "\n"
    rows = zip(labels, *(values for _, values in formats))
    return _tsv_text(head) + (line * len(labels)) % tuple(chain.from_iterable(rows))


def _format_column(values: Sequence[float], precision: int | None) -> tuple[str, Sequence]:
    """A ``%`` directive for one column and the values it formats, by the rule
    of :func:`format_magnitude`: ``%d`` if all are integral, ``%.Nf`` if none
    are, else (or at full precision) ``%s`` of text made cell by cell.

    Integrality is tested as the column is scanned, with no list of it:
    ``all`` stops at the first fractional value and ``any`` at the first
    integral one, so an all-integral or all-fractional column takes one
    pass, and only a mixed one is formatted cell by cell.
    """
    if precision is None:
        return "%s", list(map(repr, values))
    if all(map(float.is_integer, values)):
        return "%d", values
    if not any(map(float.is_integer, values)):
        return f"%.{precision}f", values
    return "%s", list(map(format_magnitude, values, repeat(precision)))


def emit_matrix(
    names: Iterable[str],
    matrix: Iterable[Iterable[float]],
    format: str = "tsv",
    precision: int | None = 2,
) -> str:
    """Render a correlation matrix with row and column headers: ``names`` is
    read by :func:`name_list`, and ``matrix`` must be one row per name of
    one cell per name, each read by :func:`finite`; ``precision``
    is read by :func:`check_precision`."""
    precision = check_precision(precision)
    names = name_list(names, "matrix names")
    rows = [[finite(cell, "matrix cell") for cell in row] for row in matrix]
    n = len(names)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise DomainError(f"matrix must be {n} by {n}: a row and a column per name")
    if format == "json":
        import json
        payload = {"columns": list(names), "matrix": rows}
        return json.dumps(payload, indent=2) + "\n"
    if format not in ("tsv", "csv"):
        raise FormatError(f"unknown matrix format {format!r}")
    lines = [["correlation", *names]]
    for name, row in zip(names, rows):
        lines.append([name, *map(_format_real, row, repeat(precision))])
    if format == "tsv":
        return _tsv_text(lines)
    return _csv_text(lines)
