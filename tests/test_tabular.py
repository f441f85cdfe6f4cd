"""CSV/JSON ingestion and table emission contracts."""

import csv
import io
import json
import math
import re
import unittest.mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scindex import (
    AnalyticsTable,
    CitationVector,
    DomainError,
    FormatError,
    NegativeCountError,
    PortfolioSummary,
    Quantity,
    ScindexError,
    emit_records,
    emit_table,
    parse_input,
    registry_symbols,
)
from scindex.analytics import pearson_matrix
from scindex.datasets import AUTHOR_COLUMNS, published_table, reconstructed_table
from scindex.dimension import Dimension
from scindex.errors import shown
from scindex.indicators import VECTOR_LAYOUT
from scindex import tabular
from scindex.tabular import (
    SUMMARY_HEADER,
    SUMMARY_HEADER_H,
    _csv_records,
    _csv_columns,
    _read_columns,
    _split_columns,
    _format_column,
    _json_records,
    emit_matrix,
    format_magnitude,
    parse_counts,
)

from oracles import table_lines, table_rows, tsv_text

WIDE_SAMPLE = 'author,citations\nA,"4;2;1"\n'
SUMMARY_SAMPLE = "author,P,i,eta,h\nLI YF,142,33.25,0.20,34\n"

# Digits, separators, signs and characters that int or _plain refuse.
COUNT_CHARS = "0123456789;;  \t+-_\u00a0ab\u0664"


def counts_one_by_one(cell):
    """The vector of a cell's items, each read by ``int`` on its own: the first
    item that is not a plain ASCII integer literal is named, then the first negative."""
    items = [item.strip() for item in cell.split(";") if item.strip()]
    bad = next((item for item in items if not re.fullmatch("[+-]?[0-9]+", item)), None)
    if bad is not None:
        raise FormatError(f"invalid citation count {shown(bad)}")
    return CitationVector([int(item) for item in items])


# Whitespace that str.strip removes around an item, ASCII and not.
ITEM_SPACE = " \t\n\x0b\x1c\x1f\u00a0\u2003\u3000"
BAD_ITEMS = ("x", "1_0", "\u0664", "4 2", "4\u00a02", "--4", "+", "-", "0x1", "1.0", "4e2")


@st.composite
def count_items(draw):
    """A cell item as (padded text, text, count): an int, an alias of one
    (``04``, ``+4``, ``-0``) or a negative, with its count; a blank, with the
    count ``"blank"``; or a bad item, with the count None."""
    n = draw(st.integers(0, 10**6))
    text, count = draw(
        st.sampled_from(
            [
                (str(n), n), ("0" + str(n), n), ("+" + str(n), n), ("-0", 0),
                ("-" + str(n + 1), -(n + 1)), ("-0" + str(n + 1), -(n + 1)), ("", "blank"),
            ]
        )
        | st.sampled_from(BAD_ITEMS).map(lambda bad: (bad, None))
    )
    pad = st.text(alphabet=ITEM_SPACE, max_size=2)
    return draw(pad) + text + draw(pad), text, count


def outcome(read, cell):
    try:
        return "read", read(cell).runs
    except ScindexError as exc:
        return "raised", type(exc), str(exc)


class TestParseCsv:
    def test_smallest_wide_file(self):
        records = parse_input(WIDE_SAMPLE, "csv")
        assert len(records) == 1
        assert records[0].label == "A"
        assert records[0].vector.counts == (4, 2, 1)

    def test_summary_row(self):
        records = parse_input(SUMMARY_SAMPLE, "csv")
        record = records[0]
        assert record.label == "LI YF"
        assert record.papers == 142
        assert record.impact == 33.25
        assert record.evenness == 0.20
        assert record.h == 34.0

    def test_summary_without_h(self):
        records = parse_input("author,P,i,eta\nA,10,5,0.5\n", "csv")
        assert records[0].h is None

    def test_blank_h_cell(self):
        records = parse_input("author,P,i,eta,h\nA,10,5,0.5,\n", "csv")
        assert records[0].h is None

    def test_negative_count_reports_line(self):
        with pytest.raises(NegativeCountError) as excinfo:
            parse_input('author,citations\nA,"4;-2;1"\n', "csv")
        assert excinfo.value.line == 2
        assert str(excinfo.value) == "line 2: negative citation count -2"

    def test_bad_header(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input("name,cites\nA,4\n", "csv")
        assert excinfo.value.line == 1

    def test_non_integer_count(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input('author,citations\nA,"4;x;1"\n', "csv")
        assert excinfo.value.line == 2
        assert str(excinfo.value) == "line 2: invalid citation count 'x'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('author,citations\nA,"4;1_0;1"\n', "invalid citation count '1_0'"),
            ("author,P,i,eta\nA,1_000,2.5,0.5\n", "invalid P value '1_000'"),
            ("author,P,i,eta\nA,1000,2_5.0,0.5\n", "invalid i value '2_5.0'"),
            ("author,P,i,eta,h\nA,1000,2.5,0.5,1_0\n", "invalid h value '1_0'"),
        ],
    )
    def test_digit_separators_are_refused(self, text, message):
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "csv")
        assert str(excinfo.value) == f"line 2: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('author,citations\nA,"٤;٢"\n', "invalid citation count '٤'"),
            ("author,P,i,eta\nA,١٠,2.5,0.5\n", "invalid P value '١٠'"),
            ("author,P,i,eta\nA,10,٢.٥,0.5\n", "invalid i value '٢.٥'"),
            ("author,P,i,eta,h\nA,10,2.5,0.5,٣\n", "invalid h value '٣'"),
        ],
        ids=["counts", "P", "i", "h"],
    )
    def test_non_ascii_digits_are_refused(self, text, message):
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "csv")
        assert str(excinfo.value) == f"line 2: {message}"

    def test_non_ascii_whitespace_around_numbers_is_skipped(self):
        wide = parse_input('author,citations\nA,"4;\u00a02\u3000"\n', "csv")
        assert wide[0].vector.counts == (4, 2)
        summary = parse_input("author,P,i,eta\nA,\u00a010,2.5\u3000,0.5\n", "csv")
        assert (summary[0].papers, summary[0].impact) == (10, 2.5)

    def test_wrong_field_count(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input("author,P,i,eta\nA,10,5\n", "csv")
        assert excinfo.value.line == 2

    def test_summary_invariant_violation_reports_line(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input("author,P,i,eta\nA,10,5,1.5\n", "csv")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("B,3,nan,0.5,1", "mean impact must be finite, got nan"),
            ("B,3,inf,0.5,1", "mean impact must be finite, got inf"),
            ("B,3,2,0.5,nan", "h must be finite, got nan"),
        ],
    )
    def test_non_finite_summary_reports_line(self, row, message):
        with pytest.raises(FormatError) as excinfo:
            parse_input(f"author,P,i,eta,h\nA,3,2,0.5,1\n{row}\n", "csv")
        assert str(excinfo.value) == f"line 3: {message}"

    def test_bytes_accepted(self):
        records = parse_input(WIDE_SAMPLE.encode(), "csv")
        assert records[0].vector.counts == (4, 2, 1)

    @pytest.mark.parametrize("cell", ["", '""', '" ; "'])
    def test_empty_portfolio_reports_line_and_label(self, cell):
        with pytest.raises(FormatError) as excinfo:
            parse_input(f'author,citations\nA,"4;2;1"\nB,{cell}\n', "csv")
        assert str(excinfo.value) == "line 3: portfolio 'B' has no papers"

    def test_paper_count_beyond_float_range_reports_line(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input(f"author,P,i,eta\nA,1{'0' * 400},2,0.5\n", "csv")
        assert str(excinfo.value) == "line 2: paper count exceeds the floating-point range"

    def test_oversized_field_reports_line(self):
        cell = ";".join(["123456"] * 20_000)
        with pytest.raises(FormatError) as excinfo:
            parse_input(f'author,citations\nA,"4"\nB,"{cell}"\n', "csv")
        assert excinfo.value.line == 3
        assert "field larger than field limit" in str(excinfo.value)
        assert csv.field_size_limit() == 131_072

    def test_malformed_quoting_reports_line(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input('author,citations\nA,"4"\n\r"\n', "csv")
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("data", [WIDE_SAMPLE, WIDE_SAMPLE.encode()], ids=["str", "bytes"])
    def test_byte_order_mark_ignored(self, data):
        bom = "\ufeff" if isinstance(data, str) else b"\xef\xbb\xbf"
        records = parse_input(bom + data, "csv")
        assert records[0].label == "A"
        assert records[0].vector.counts == (4, 2, 1)

    @pytest.mark.parametrize(
        "text",
        [
            'author,citations\nA,"4;2;1"\nB,"1"\nA,"3"\n',
            "author,P,i,eta\nA,10,5,0.5\nB,10,5,0.5\nA,9,5,0.5\n",
        ],
        ids=["wide", "summary"],
    )
    def test_duplicate_author_names_first_line(self, text):
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "csv")
        assert str(excinfo.value) == "line 4: duplicate author 'A', first given at line 2"

    def test_invalid_utf8_reports_line(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input(b'author,citations\nA,"4"\nB,"\xff"\n', "csv")
        assert excinfo.value.line == 3
        assert "not UTF-8" in str(excinfo.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('author,citations\n"A\nB",1\nC,x\n', "line 4: invalid citation count 'x'"),
            ('author,P,i,eta\n"A\nB",10,5,0.5\nC,x,5,0.5\n', "line 4: invalid P value 'x'"),
            (
                'author,citations\n"A\nB",1\nC,2\n\nC,3\n',
                "line 6: duplicate author 'C', first given at line 4",
            ),
        ],
        ids=["wide", "summary", "duplicate"],
    )
    def test_rows_after_a_multi_line_label_name_their_first_line(self, text, message):
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "csv")
        assert str(excinfo.value) == message


    @pytest.mark.parametrize(
        "body, expected",
        [
            ('A,"4; ;2;"\nB,3\n', [("A", [4, 2]), ("B", [3])]),
            ('A,4\nB,"4;x;1"\n', "line 3: invalid citation count 'x'"),
            ('A,"3;-2;-5"\n', "line 2: negative citation count -2"),
            (
                'A,1\nB,"2;' + "1" * 5000 + '"\n',
                "line 3: invalid citation count "
                f"'{'1' * 39}... (5000 characters)",
            ),
            ("A,4\nB,\n", "line 3: portfolio 'B' has no papers"),
            ('A,4\nB," ; "\n', "line 3: portfolio 'B' has no papers"),
            ("A,4\nB,4,5\n", "line 3: expected 2 fields, got 3"),
            ("A,4\nB\n", "line 3: expected 2 fields, got 1"),
            ("A,4\nB,1\nA,2\n", "line 4: duplicate author 'A', first given at line 2"),
            ('A,"4;\u0664"\n', "line 2: invalid citation count '\u0664'"),
            ('A,"4;\u00a02"\n', [("A", [4, 2])]),
            ('A,"1_0"\n', "line 2: invalid citation count '1_0'"),
            ('A,4\nB,"' + "1;" * 70000 + '1"\n', "line 3: field larger than field limit (131072)"),
            ('"Smith, J.","4;2"\n"Q ""R""\nS",1\n', [("Smith, J.", [4, 2]), ('Q "R"\nS', [1])]),
            ('\nA,4\n\n\nB,"1;1"\n', [("A", [4]), ("B", [1, 1])]),
            ('A,"4;04;+4"\nB," 4 ;4"\n', [("A", [4, 4, 4]), ("B", [4, 4])]),
        ],
        ids=[
            "blank-item", "bad-item", "negative", "over-long-item", "empty-cell", "blank-cell",
            "long-row", "short-row", "duplicate", "non-ascii-digit", "non-ascii-space",
            "digit-separator", "csv-error", "quoted-labels", "blank-lines", "aliases",
        ],
    )
    def test_wide_files_read_as_before(self, body, expected):
        """Every wide file reads to the records, or fails with the message and
        line, that the row-by-row reader gives; a file with a defect is never
        read by columns."""
        text = "author,citations\n" + body
        if isinstance(expected, list):
            records = [PortfolioSummary(label, CitationVector(c)) for label, c in expected]
            assert parse_input(text, "csv") == records
            return
        with pytest.raises(ScindexError) as excinfo:
            parse_input(text, "csv")
        assert str(excinfo.value) == expected
        assert excinfo.value.line == int(expected.split(":")[0].removeprefix("line "))
        assert _csv_columns(text) is None


class TestParseCounts:
    def test_blank_items_are_skipped(self):
        assert parse_counts(" 4; ;2;1;") == CitationVector([4, 2, 1])
        assert parse_counts(" ; ") == CitationVector([])

    @pytest.mark.parametrize(
        "cell, bad", [("4;x;1", "x"), ("4; 1_0", "1_0"), ("\u0664;2", "\u0664"), ("4;-", "-")]
    )
    def test_the_first_bad_item_is_named_without_a_location(self, cell, bad):
        with pytest.raises(FormatError) as excinfo:
            parse_counts(cell)
        assert str(excinfo.value) == f"invalid citation count {bad!r}"
        assert (excinfo.value.line, excinfo.value.record) == (None, None)

    @pytest.mark.parametrize(
        "cell, expected",
        [
            ("4;2;1", [4, 2, 1]),
            (" 4 ; 2 ;1 ", [4, 2, 1]),
            ("\t4\t;\t2", [4, 2]),
            ("4;;2", [4, 2]),
            (";", []),
            ("", []),
            ("  ", []),
            ("4; ;2;", [4, 2]),
            ("007;0", [7, 0]),
            ("4;04;+4; 4", [4, 4, 4, 4]),
            ("-0;0", [0, 0]),
            ("4;\u00a02", [4, 2]),
            ("\u00a04\u00a0;\u00a0", [4]),
            ("4;\x1c2\x1f", [4, 2]),
            ("\u20034\u3000;\x0b+2", [4, 2]),
            ("4;x", "'x'"),
            ("4;1_0", "'1_0'"),
            ("x;1_0", "'x'"),
            ("\u0664;2", "'\u0664'"),
            ("4;\u00a0x", "'x'"),
            ("4 2", "'4 2'"),
            ("4;+", "'+'"),
            ("--4", "'--4'"),
            ("4;-", "'-'"),
            ("4;2\u00a03", "'2\\xa03'"),
            (" ; ;x", "'x'"),
            ("a;\u00a0;_", "'a'"),
            ("3;-2;x", "'x'"),
            ("4;0x1", "'0x1'"),
        ],
    )
    def test_reads_every_cell_as_before(self, cell, expected):
        # A list is the counts; a string is the bad item the error names.
        if isinstance(expected, list):
            assert parse_counts(cell) == CitationVector(expected)
        else:
            with pytest.raises(FormatError) as excinfo:
                parse_counts(cell)
            assert str(excinfo.value) == f"invalid citation count {expected}"

    @pytest.mark.parametrize("cell, first", [("3;-2;-5", -2), ("+4;-0;-3", -3), ("-02; 1;-2", -2)])
    def test_the_first_negative_count_is_named(self, cell, first):
        with pytest.raises(NegativeCountError) as excinfo:
            parse_counts(cell)
        assert str(excinfo.value) == f"negative citation count {first}"
        assert (excinfo.value.line, excinfo.value.record) == (None, None)

    @given(
        cell=st.text(alphabet=COUNT_CHARS, max_size=24)
        | st.lists(st.text(alphabet=COUNT_CHARS.replace(";", ""), max_size=3)).map(";".join)
    )
    @settings(max_examples=500)
    @example(cell="00000000000000\xa0\xa0\xa0\xa0\xa0\xa00")  # a repr past the shown length
    def test_a_cell_of_int_items_is_read_as_int_reads_them(self, cell):
        assert outcome(parse_counts, cell) == outcome(counts_one_by_one, cell)

    @given(items=st.lists(count_items(), max_size=8))
    @settings(max_examples=500)
    def test_a_cell_reads_to_the_ints_of_its_items(self, items):
        """The vector of the items' ints, else the first bad item, else the
        first negative count."""
        cell = ";".join(padded for padded, _, _ in items)
        bad = [text for _, text, count in items if count is None]
        counts = [count for _, _, count in items if count not in (None, "blank")]
        negative = [count for count in counts if count < 0]
        if not (bad or negative):
            assert parse_counts(cell) == CitationVector(counts)
            return
        with pytest.raises((FormatError, NegativeCountError)) as excinfo:
            parse_counts(cell)
        if bad:
            assert type(excinfo.value) is FormatError
            assert str(excinfo.value) == f"invalid citation count {shown(bad[0])}"
        else:
            assert type(excinfo.value) is NegativeCountError
            assert str(excinfo.value) == f"negative citation count {negative[0]}"


class TestParseJson:
    def test_wide_records(self):
        text = json.dumps([{"author": "A", "citations": [4, 2, 1]}])
        records = parse_input(text, "json")
        assert records[0].vector.counts == (4, 2, 1)

    def test_summary_records(self):
        text = json.dumps([{"author": "A", "P": 10, "i": 5.0, "eta": 0.5, "h": 3}])
        records = parse_input(text, "json")
        assert records[0].papers == 10
        assert records[0].h == 3.0

    def test_mixed_forms_rejected(self):
        text = json.dumps(
            [
                {"author": "A", "citations": [4, 2, 1]},
                {"author": "B", "P": 10, "i": 5.0, "eta": 0.5},
            ]
        )
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "json")
        assert "mixed" in str(excinfo.value)
        assert excinfo.value.record == 2

    def test_negative_count_reports_record(self):
        text = json.dumps(
            [
                {"author": "A", "citations": [4, 2, 1]},
                {"author": "B", "citations": [1, -1]},
            ]
        )
        with pytest.raises(NegativeCountError) as excinfo:
            parse_input(text, "json")
        assert excinfo.value.record == 2

    def test_record_errors_name_the_record_not_a_line(self):
        records = [{"author": "A", "citations": [1]}, {"author": "B", "citations": [-2]}]
        text = json.dumps(records, indent=2)
        assert text.splitlines()[10].strip() == "-2"
        with pytest.raises(NegativeCountError) as excinfo:
            parse_input(text, "json")
        assert str(excinfo.value) == "record 2: negative citation count -2"
        assert (excinfo.value.record, excinfo.value.line) == (2, None)

    def test_boolean_count_reports_record(self):
        text = json.dumps(
            [
                {"author": "A", "citations": [4, 2, 1]},
                {"author": "B", "citations": [True, 2, 1]},
            ]
        )
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "json")
        assert str(excinfo.value) == "record 2: citation counts must be integers, got True"

    def test_non_integral_paper_count_reports_record(self):
        text = json.dumps([{"author": "A", "P": 2.7, "i": 1.0, "eta": 0.5}])
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "json")
        assert str(excinfo.value) == "record 1: invalid P value 2.7"
        text = json.dumps([{"author": "A", "P": 3.0, "i": 1.0, "eta": 0.5}])
        assert parse_input(text, "json")[0].papers == 3

    def test_a_record_of_neither_form_is_refused(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input('[{"author": "A", "P": 3}]', "json")
        assert str(excinfo.value) == (
            "record 1: record needs either 'citations' or the keys P, i, eta"
        )

    def test_citations_must_be_an_array(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input('[{"author": "A", "citations": 5}]', "json")
        assert str(excinfo.value) == "record 1: 'citations' must be an array of integers"

    def test_not_an_array(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input('{"author": "A"}', "json")
        assert str(excinfo.value) == "line 1: expected a JSON array of records"

    def test_invalid_json(self):
        with pytest.raises(FormatError):
            parse_input("不[", "json")

    def test_invalid_json_names_the_decoder_line(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input('[\n  {"author": "A"},\n  {"author": "B",}\n]', "json")
        assert excinfo.value.line == 3
        assert str(excinfo.value).startswith("line 3: invalid JSON: ")

    def test_over_long_integer_names_its_line(self):
        with pytest.raises(FormatError) as excinfo:
            parse_input(f'[\n  {{"author": "A",\n   "P": {"1" * 5000}}}\n]', "json")
        assert excinfo.value.line == 3

    def test_empty_portfolio_reports_record_and_label(self):
        text = json.dumps(
            [{"author": "A", "citations": [4]}, {"author": "B", "citations": []}]
        )
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "json")
        assert str(excinfo.value) == "record 2: portfolio 'B' has no papers"

    def test_byte_order_mark_ignored(self):
        text = json.dumps([{"author": "A", "citations": [4, 2, 1]}])
        assert parse_input("\ufeff" + text, "json")[0].label == "A"
        assert parse_input(b"\xef\xbb\xbf" + text.encode(), "json")[0].label == "A"

    def test_duplicate_author_names_first_record(self):
        text = json.dumps(
            [
                {"author": "A", "P": 10, "i": 5.0, "eta": 0.5},
                {"author": "B", "P": 10, "i": 5.0, "eta": 0.5},
                {"author": "A", "P": 9, "i": 5.0, "eta": 0.5},
            ]
        )
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "json")
        assert str(excinfo.value) == (
            "record 3: duplicate author 'A', first given at record 1"
        )

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"P": 10**400, "i": 2.0, "eta": 0.5}, "paper count exceeds the floating-point range"),
            ({"P": 3, "i": 10**400, "eta": 0.5}, "i value exceeds the floating-point range"),
            ({"P": 3, "i": 2.0, "eta": 10**400}, "eta value exceeds the floating-point range"),
            (
                {"P": 3, "i": 2.0, "eta": 0.5, "h": 10**400},
                "h value exceeds the floating-point range",
            ),
        ],
    )
    def test_huge_summary_numbers_report_record(self, record, message):
        with pytest.raises(FormatError) as excinfo:
            parse_input(json.dumps([{"author": "A", **record}]), "json")
        assert str(excinfo.value) == f"record 1: {message}"

    @pytest.mark.parametrize(
        "field, value",
        [("P", "1_000"), ("P", "١٠"), ("i", "2_5.0"), ("eta", "٠.٥"), ("h", "1_0")],
    )
    def test_summary_strings_are_read_as_numbers(self, field, value):
        record = {"author": "A", "P": "10", "i": "2.5", "eta": "0.5", "h": "3"}
        parsed = parse_input(json.dumps([record]), "json")[0]
        assert (parsed.papers, parsed.impact, parsed.evenness, parsed.h) == (10, 2.5, 0.5, 3.0)
        with pytest.raises(FormatError) as excinfo:
            parse_input(json.dumps([{**record, field: value}]), "json")
        assert str(excinfo.value) == f"record 1: invalid {field} value {value!r}"

    @pytest.mark.parametrize(
        "author", [None, 5, ["A"], {"name": "A"}, True], ids=["null", "number", "array", "object", "bool"]
    )
    def test_author_must_be_a_string(self, author):
        for record in ({"author": author, "citations": [1]}, {"citations": [1]}):
            text = json.dumps([{"author": "A", "citations": [1]}, record])
            with pytest.raises(FormatError) as excinfo:
                parse_input(text, "json")
            assert str(excinfo.value) == (
                "record 2: record must be an object with an 'author' string"
            )

    @pytest.mark.parametrize("field", ["P", "i", "eta", "h"])
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_are_not_numbers(self, field, value):
        record = {"author": "A", "P": 10, "i": 2.5, "eta": 0.5, "h": 3, field: value}
        with pytest.raises(FormatError) as excinfo:
            parse_input(json.dumps([record]), "json")
        assert str(excinfo.value) == f"record 1: invalid {field} value {value!r}"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("P", "1_000", "invalid P value '1_000'"),
            ("P", "2.5", "invalid P value '2.5'"),
            ("i", "x", "invalid i value 'x'"),
            ("h", "\u0663", "invalid h value '\u0663'"),
            ("P", "0", "paper count must be >= 1, got 0"),
            ("eta", "1.5", "evenness must lie in (0, 1], got 1.5"),
            ("i", "nan", "mean impact must be finite, got nan"),
        ],
    )
    def test_a_defect_reads_the_same_in_csv_and_json(self, field, value, message):
        fields = {"P": "10", "i": "2.5", "eta": "0.5", "h": "3", field: value}
        csv_text = "author,P,i,eta,h\nA," + ",".join(fields.values()) + "\n"
        json_text = json.dumps([{"author": "A", **fields}])
        for text, form, where in ((csv_text, "csv", "line 2"), (json_text, "json", "record 1")):
            with pytest.raises(FormatError) as excinfo:
                parse_input(text, form)
            assert str(excinfo.value) == f"{where}: {message}"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("A,3,2,0.5,-4", "h must lie in [0, P], got -4.0 with P = 3"),
            ("A,5,1,1,9", "h must lie in [0, P], got 9.0 with P = 5"),
            ("A,5,1,1,5.000001", "h must lie in [0, P], got 5.000001 with P = 5"),
        ],
    )
    def test_h_outside_zero_to_p_reads_the_same_in_csv_and_json(self, row, message):
        fields = dict(zip(SUMMARY_HEADER_H, row.split(",")))
        csv_text = "author,P,i,eta,h\nB,3,2,0.5,1\n" + row + "\n"
        json_text = json.dumps([{"author": "B", "P": 3, "i": 2, "eta": 0.5, "h": 1}, fields])
        for text, form, where in ((csv_text, "csv", "line 3"), (json_text, "json", "record 2")):
            with pytest.raises(FormatError) as excinfo:
                parse_input(text, form)
            assert str(excinfo.value) == f"{where}: {message}"

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"eta": 2}, {}, {"author": "A"}], "record 2: evenness must lie in (0, 1], got 2.0"),
            ([{"P": 0}, {}, {"i": "x"}], "record 2: paper count must be >= 1, got 0"),
            ([{"h": 11}, {"author": "A"}], "record 2: h must lie in [0, P], got 11.0 with P = 10"),
            ([{"eta": 0}, {"citations": [1]}], "record 2: evenness must lie in (0, 1], got 0.0"),
            ([{}, {"citations": [1]}], "record 3: mixed wide and summary records in one file"),
            ([{}, {"P": 2.5}], "record 3: invalid P value 2.5"),
            ([{}, {"P": 10**400}], "record 3: paper count exceeds the floating-point range"),
        ],
        ids=[
            "range-before-duplicate", "range-before-field", "range-and-duplicate",
            "range-before-mixed", "mixed", "field", "P-past-the-float-range",
        ],
    )
    def test_the_first_summary_defect_names_its_record(self, entries, message):
        """Summary values are checked by columns, but an array with a defect
        names its first one in record order, as checking record by record does."""
        records = [{"author": "A", "P": 10, "i": 5.0, "eta": 0.5}]
        for n, entry in enumerate(entries):
            records.append({"author": f"R{n}", "P": 10, "i": 5.0, "eta": 0.5, **entry})
            if "citations" in entry:
                records[-1] = {"author": f"R{n}", "citations": entry["citations"]}
        with pytest.raises(FormatError) as excinfo:
            parse_input(json.dumps(records), "json")
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("A,9007199254740995,2.0,0.5,9007199254740996\n", 2),
            ("A,9007199254740995,2.0,0.5,\nB,9007199254740995,2.0,0.5,9007199254740996\n", 3),
        ],
        ids=["every-row-with-h", "a-row-without-h"],
    )
    def test_h_just_past_a_p_beyond_2_to_the_53_is_refused(self, rows, line):
        """h and P compare exactly: rounding P to a float, 9007199254740996,
        would take this h."""
        text = "author,P,i,eta,h\n" + rows
        assert _csv_columns(text) is None
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "csv")
        assert str(excinfo.value) == (
            f"line {line}: h must lie in [0, P], got 9007199254740996.0 "
            "with P = 9007199254740995"
        )
        fields = [
            {key: value for key, value in zip(SUMMARY_HEADER_H, row.split(",")) if value}
            for row in rows.split()
        ]
        with pytest.raises(FormatError, match=r"h must lie in \[0, P\]"):
            parse_input(json.dumps(fields), "json")

    @pytest.mark.parametrize(
        "h", ["0,1,P", "0,,P", ",,", "P,0,"], ids=["all", "some", "none", "last-blank"]
    )
    def test_h_columns_in_range_are_read_by_columns(self, h):
        """An h up to P is taken, P past 2**53 included, and a blank h is none."""
        papers = 2**53 + 2
        cells = h.replace("P", str(papers)).split(",")
        text = "author,P,i,eta,h\n" + "".join(
            f"A{k},{papers},2.0,0.5,{cell}\n" for k, cell in enumerate(cells)
        )
        records = _csv_columns(text)
        assert records is not None
        assert records == _csv_records(csv.reader(io.StringIO(text)))

    def test_h_at_zero_and_at_p_is_accepted(self):
        records = parse_input("author,P,i,eta,h\nA,3,2,0.5,0\nB,5,1,1,5\n", "csv")
        assert [record.h for record in records] == [0.0, 5.0]

    @pytest.mark.parametrize(
        "rows",
        ["A,3,-0.0,0.5,-0.0\n", "A,3,-0,0.5,-0e3\nB,4,1e-3,0.5,\n"],
        ids=["every-row-with-h", "a-row-without-h"],
    )
    def test_a_negative_zero_impact_or_h_is_read_as_zero(self, rows):
        """The column reader gives 0.0 for -0.0, as the row and JSON readers
        do, and the records write back as 0.0."""
        text = "author,P,i,eta,h\n" + rows
        records = _csv_columns(text)
        assert records is not None
        assert records == parse_input(text, "csv")
        assert math.copysign(1.0, records[0].impact) == math.copysign(1.0, records[0].h) == 1.0
        assert emit_records(records[:1]) == "author,P,i,eta,h\nA,3,0.0,0.5,0.0\n"

    @pytest.mark.parametrize(
        "text, form, message",
        [
            (
                f"author,P,i,eta\nA,1{'0' * 5000},2,0.5\n",
                "csv",
                "line 2: P value exceeds the floating-point range",
            ),
            (
                json.dumps([{"author": "A", "P": "1" + "0" * 5000, "i": 2, "eta": 0.5}]),
                "json",
                "record 1: P value exceeds the floating-point range",
            ),
            (
                f'author,citations\nA,"4;1{"0" * 5000}"\n',
                "csv",
                f"line 2: invalid citation count '1{'0' * 38}... (5001 characters)",
            ),
            (
                f"author,P,i,eta\nA,10,{'x' * 5000},0.5\n",
                "csv",
                f"line 2: invalid i value '{'x' * 39}... (5000 characters)",
            ),
            (
                f"author,P,i,eta\n{'A' * 5000},10,2,0.5\n{'A' * 5000},10,2,0.5\n",
                "csv",
                f"line 3: duplicate author '{'A' * 39}... (5000 characters), "
                "first given at line 2",
            ),
            (
                json.dumps([{"author": "A", "citations": ["1" * 5000]}]),
                "json",
                f"record 1: citation counts must be integers, got '{'1' * 39}... (5000 characters)",
            ),
        ],
        ids=["csv-P", "json-P", "wide-count", "long-i", "long-label", "json-string-count"],
    )
    def test_long_values_are_cut_in_messages(self, text, form, message):
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, form)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, f"[{'1' * 5000}]"], ids=["deep-nesting", "long-integer"]
    )
    def test_decoder_limits_are_format_errors(self, text):
        with pytest.raises(FormatError, match="invalid JSON"):
            parse_input(text, "json")

    @pytest.mark.parametrize(
        "record",
        [{"citations": [3, 1]}, {"P": 3, "i": 1.0, "eta": 0.5}],
        ids=["wide", "summary"],
    )
    def test_a_label_utf8_cannot_encode_names_its_record(self, record):
        """A \\ud800 escape gives a lone surrogate, which no writer can encode."""
        text = json.dumps([{"author": "A", **record}, {"author": "B\ud800", **record}])
        assert "\\ud800" in text
        with pytest.raises(FormatError) as excinfo:
            parse_input(text.encode(), "json")
        assert str(excinfo.value) == (
            "record 2: portfolio label must be UTF-8 text, got 'B\\ud800'"
        )

    def test_a_surrogate_pair_escape_is_one_character(self):
        text = '[{"author": "\\ud83d\\ude00", "citations": [3, 1]}]'
        assert parse_input(text, "json")[0].label == "\U0001f600"

    @pytest.mark.parametrize("form", ["csv", "json"])
    def test_a_str_input_holding_a_lone_surrogate_names_its_line(self, form):
        text = {
            "csv": 'author,citations\nA,"1"\nB\ud800,"3;1"\n',
            "json": '[{"author": "A", "citations": [1]},\n {"author": "B\ud800", "citations": [1]}]',
        }[form]
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, form)
        line = 3 if form == "csv" else 2
        assert str(excinfo.value) == f"line {line}: input is not UTF-8: surrogates not allowed"


# Items of a wide JSON list: exact ints of any size, and every kind of item
# the per-item reading refuses, or that sums as an int (a bool) or overflows
# a float sum (10**400 with a float).
_json_items = st.one_of(
    st.integers(0, 50),
    st.integers(-3, -1),
    st.sampled_from([2**70, 10**400]),
    st.booleans(),
    st.integers(0, 5).map(float),
    st.sampled_from([math.nan, math.inf, 0.5]),
    st.sampled_from(["3", "x", None, [1], {"a": 1}, []]),
)
_wide_json_records = st.lists(
    st.fixed_dictionaries(
        {
            "author": st.sampled_from(["A", "B", "C", "untrue", "falsetto", "A\ud800"]),
            "citations": st.lists(st.integers(0, 50), min_size=1, max_size=6)
            | st.lists(_json_items, max_size=6),
        }
    ),
    min_size=1,
    max_size=4,
)


def _summary(author, P=3, i=1.0, eta=0.5):
    return {"author": author, "P": P, "i": i, "eta": eta}


class TestJsonArraysAtOnce:
    """A wide JSON array whose sum is an int, in a file with no true or false
    token, is tallied at once; it reads as record by record does, each list
    read item by item, and gives the same first error."""

    @settings(max_examples=500, deadline=None)
    @given(records=_wide_json_records)
    @example(records=[{"author": "A", "citations": [10**400, 0.5]}])
    @example(records=[{"author": "A", "citations": [1, True]}])
    @example(records=[{"author": "A", "citations": []}])
    @example(records=[{"author": "A\ud800", "citations": [3, -1]}])
    @example(records=[_summary("A"), _summary("B", eta=1.5), _summary("C"), _summary("D", P="x")])
    @example(records=[_summary("A"), _summary("B"), _summary("C", i=-1.0), _summary("D"),
                      _summary("A")])
    @example(
        records=[
            {"author": "A", "citations": [1, 2]},
            {"author": "B", "citations": [5, -2]},
            _summary("C"),
        ]
    )
    def test_arrays_read_at_once_read_as_record_by_record(self, records):
        text = json.dumps(records, allow_nan=True)
        try:
            expected = _json_records(json.loads(text), ints=False)
        except ScindexError as exc:
            with pytest.raises(ScindexError) as excinfo:
                parse_input(text, "json")
            assert type(excinfo.value) is type(exc)
            assert str(excinfo.value) == str(exc)
            assert excinfo.value.record == exc.record
        else:
            assert parse_input(text, "json") == expected

    def test_a_clean_array_builds_no_vector_item_by_item(self, monkeypatch):
        calls = []
        init = CitationVector.__init__
        monkeypatch.setattr(
            CitationVector, "__init__", lambda vec, counts: calls.append(1) or init(vec, counts)
        )
        records = [{"author": f"A{k}", "citations": [k + 3, 2, 2, 0]} for k in range(3)]
        fast = parse_input(json.dumps(records), "json")
        assert calls == []
        records[1]["author"] = "untrue"  # a true token: each list is read item by item
        exact = parse_input(json.dumps(records), "json")
        assert len(calls) == 3
        assert exact == [fast[0], PortfolioSummary("untrue", fast[1].vector), fast[2]]
        assert fast[0].vector.runs == ((3, 1), (2, 2), (0, 1))

    def test_a_defective_array_builds_no_vector_item_by_item(self, monkeypatch):
        calls = []
        init = CitationVector.__init__
        monkeypatch.setattr(
            CitationVector, "__init__", lambda vec, counts: calls.append(1) or init(vec, counts)
        )
        # Eight wide records of 15,000 to 24,800 counts; the last count is -1.
        records = [
            {"author": f"A{k}", "citations": [(j * 7919) % 1000 for j in range(15000 + 1400 * k)]}
            for k in range(8)
        ]
        records[-1]["citations"][-1] = -1
        with pytest.raises(NegativeCountError) as excinfo:
            parse_input(json.dumps(records), "json")
        assert str(excinfo.value) == "record 8: negative citation count -1"
        assert calls == []


# Text that reaches the row parsers: a header of each form, then rows
# drawn from the characters that matter to CSV framing and the numbers.
_csv_header = st.sampled_from(
    ["author,citations\n", "author,P,i,eta\n", "author,P,i,eta,h\n", ""]
)
_csv_body = st.text(alphabet=',;"\n\r \ufeff\u00a00123456789-.eEinfaA\x00_', max_size=80)
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.sampled_from(["A", "3", "1e400", "x", "1_0", "١٠"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["author", "citations", "P", "i", "eta", "h", "x"]),
        inner,
        max_size=6,
    ),
    max_leaves=12,
)


# Summary CSV rows with at most one defect, each defect paired with the
# message the row-by-row reader gives for it.
_SUMMARY_DEFECTS = [
    None, "bad int", "bad float", "digit separator", "non-ASCII digit", "nan i", "eta range",
    "P below 1", "field count", "duplicate", "h below 0", "h above P",
    "negative i", "inf i", "nan h", "inf h", "P past the float range",
]
_label_text = st.text(
    alphabet=st.characters(
        blacklist_characters=',"\r\n\x00', blacklist_categories=("Cs",)
    ),
    max_size=5,
)


@st.composite
def _summary_csvs(draw, defects=_SUMMARY_DEFECTS, min_rows=0):
    """(text, reference records, None) or (text, None, (line, message))."""
    with_h = draw(st.booleans())
    names = SUMMARY_HEADER_H if with_h else SUMMARY_HEADER
    padded = [f" {n} " if draw(st.booleans()) else n for n in names]
    lines = [",".join(padded)]
    labels = draw(st.lists(_label_text, unique=True, min_size=min_rows, max_size=12))
    defect = draw(st.sampled_from(defects)) if labels else None
    if (defect == "duplicate" and len(labels) < 2) or (
        defect in ("h below 0", "h above P", "nan h", "inf h") and not with_h
    ):
        defect = None
    at = draw(st.integers(1 if defect == "duplicate" else 0, len(labels) - 1)) if defect else -1
    records, line_of, failure = [], [], None
    for r, label in enumerate(labels):
        while draw(st.integers(0, 3)) == 3:  # a quarter of the time, and never when shrunk
            lines.append("")
        line_of.append(len(lines) + 1)
        # The edge values each column check accepts are drawn as well.
        p = draw(st.integers(1, 10**6))
        i = draw(st.floats(0, 1e6) | st.sampled_from([0.0, -0.0]))
        eta = draw(st.floats(0, 1, exclude_min=True) | st.just(1.0))
        h = None
        if with_h:
            h = draw(st.none() | st.floats(0, min(p, 1e3)) | st.sampled_from([0.0, float(p)]))
        records.append(PortfolioSummary.from_summary(label, p, i, eta, h=h))
        cells = [label, str(p), repr(i), repr(eta)] + (["" if h is None else repr(h)] if with_h else [])
        if r == at:
            message = None
            if defect == "bad int":
                cells[1] = draw(st.sampled_from(["1.5", "x", "", "1e3", "--1"]))
                message = f"invalid P value {cells[1]!r}"
            elif defect == "bad float":
                field = draw(st.sampled_from(names[2:]))
                cells[names.index(field)] = draw(st.sampled_from(["x", "1.2.3", "--1", "0x1"]))
                message = f"invalid {field} value {cells[names.index(field)]!r}"
            elif defect == "digit separator":
                field = draw(st.sampled_from(names[1:]))
                cells[names.index(field)] = "1_000" if field == "P" else "2_5.0"
                message = f"invalid {field} value {cells[names.index(field)]!r}"
            elif defect == "non-ASCII digit":
                field = draw(st.sampled_from(names[1:]))
                cells[names.index(field)] = "١٠" if field == "P" else "٢.٥"
                message = f"invalid {field} value {cells[names.index(field)]!r}"
            elif defect == "nan i":
                cells[2] = "nan"
                message = "mean impact must be finite, got nan"
            elif defect == "eta range":
                bad = draw(st.sampled_from([0.0, -0.25, 1.5, 1.0000000000000002]))
                cells[3] = repr(bad)
                message = f"evenness must lie in (0, 1], got {bad}"
            elif defect == "P below 1":
                cells[1] = draw(st.sampled_from(["0", "-3"]))
                message = f"paper count must be >= 1, got {int(cells[1])}"
            elif defect == "h below 0":
                bad = draw(st.sampled_from([-1.0, -0.5, -5e-324]))
                cells[4] = repr(bad)
                message = f"h must lie in [0, P], got {bad} with P = {p}"
            elif defect == "h above P":
                bad = p + draw(st.sampled_from([0.5, 1.0, 1e3]))
                cells[4] = repr(bad)
                message = f"h must lie in [0, P], got {bad} with P = {p}"
            elif defect == "negative i":
                bad = draw(st.sampled_from([-1.5, -5e-324, -1e300, float("-inf")]))
                cells[2] = repr(bad)
                message = f"mean impact must be >= 0, got {bad}"
            elif defect == "inf i":
                cells[2] = draw(st.sampled_from(["inf", "Infinity", "1e400"]))
                message = "mean impact must be finite, got inf"
            elif defect == "nan h":
                cells[4] = draw(st.sampled_from(["nan", "NaN", "-nan"]))
                message = "h must be finite, got nan"
            elif defect == "inf h":
                bad = draw(st.sampled_from(["inf", "-inf", "1e400"]))
                cells[4] = bad
                message = f"h must be finite, got {float(bad)}"
            elif defect == "P past the float range":
                cells[1] = "1" + "0" * 399
                message = "paper count exceeds the floating-point range"
            elif defect == "field count":
                cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
                message = f"expected {len(names)} fields, got {len(cells)}"
            else:
                first = draw(st.integers(0, r - 1))
                cells[0] = labels[first]
                message = f"duplicate author {labels[first]!r}, first given at line {line_of[first]}"
            failure = (line_of[r], message)
        lines.append(",".join(cells))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    return text, None if failure else records, failure


# Item texts of one count: int reads them all as n.
_count_items = st.integers(0, 10**6).flatmap(
    lambda n: st.sampled_from([str(n), f"0{n}", f"+{n}", f" {n}", f"{n}\t"]).map(
        lambda text: (text, n)
    )
)


@st.composite
def _wide_csvs(draw):
    """(text, reference records) of a well-formed wide CSV with at least one row."""
    lines = [draw(st.sampled_from(["author,citations", " author , citations "]))]
    labels = draw(
        st.lists(
            st.text(
                st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
                max_size=5,
            ),
            unique=True,
            min_size=1,
            max_size=12,
        )
    )
    records = []
    for label in labels:
        while draw(st.integers(0, 3)) == 3:  # a quarter of the time, and never when shrunk
            lines.append("")
        items = draw(st.lists(_count_items, min_size=1, max_size=10))
        cell = ";".join(text for text, _ in items)
        lines.append('"%s","%s"' % (label.replace('"', '""'), cell))
        records.append(PortfolioSummary(label, CitationVector([n for _, n in items])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"])), records


class TestParseProperties:
    @settings(max_examples=300, deadline=None)
    @given(drawn=_summary_csvs())
    def test_summary_rows_match_the_row_reference(self, drawn):
        text, records, failure = drawn
        if failure is None:
            assert parse_input(text, "csv") == records
            return
        line, message = failure
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "csv")
        assert excinfo.value.line == line
        assert str(excinfo.value) == f"line {line}: {message}"

    @settings(max_examples=200, deadline=None)
    @given(drawn=_summary_csvs(defects=[None], min_rows=1))
    def test_well_formed_summaries_are_read_by_columns(self, drawn):
        """A well-formed summary file with rows never falls back to the row reader."""
        text, records, _ = drawn
        assert _csv_columns(text) == records

    @settings(max_examples=200, deadline=None)
    @given(drawn=_wide_csvs())
    def test_well_formed_wide_files_are_read_by_columns(self, drawn):
        """A well-formed wide file with rows never falls back to the row reader,
        and reads to the row reader's records."""
        text, records = drawn
        assert _csv_columns(text) == records
        assert _csv_records(csv.reader(io.StringIO(text))) == records

    @pytest.mark.parametrize(
        "text",
        [
            "author,P,i,eta\nA,10,5,0.5\nB,3,0,1\n",
            "author,P,i,eta,h\nA,10,5,0.5,4\nB,3,-0.0,1.0,3\nC,1,2,1e-300,0\n",
            "author,P,i,eta,h\nA,10,5,0.5,\nB,3,2.5,0.25,  \nC,4,1,1,4.0\n",
            'author, P ,i,eta,h\n"Smith, J.",10,5,0.5,4\n\n"Q ""R""\nS",3,1,1,\n',
        ],
        ids=["without-h", "with-h", "blank-h", "quoted-labels"],
    )
    def test_summary_files_are_read_by_columns(self, text):
        records = _csv_columns(text)
        assert records is not None
        assert records == _csv_records(csv.reader(io.StringIO(text)))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.one_of(
            st.text(),
            st.binary(),
            st.builds(str.__add__, _csv_header, _csv_body),
            _json_values.map(lambda v: json.dumps(v, allow_nan=True)),
        ),
        form=st.sampled_from(["csv", "json"]),
    )
    def test_only_scindex_errors(self, data, form):
        """Malformed input raises only scindex errors, and input errors name
        their line, or the JSON record they are in."""
        try:
            parse_input(data, form)
        except (FormatError, NegativeCountError) as exc:
            assert (exc.line is None) != (exc.record is None), exc
            assert form == "json" or exc.line is not None, exc
        except ScindexError:
            pass


_FIELD_LIMIT = csv.field_size_limit()
_SPLIT_SUMMARY = "author,P,i,eta\nA,3,1.0,0.5\n"


def _split_record(label, *fields):
    """A wide record of a ``[counts]`` field, else a summary record."""
    if isinstance(fields[0], list):
        return PortfolioSummary(label, CitationVector(fields[0]))
    return PortfolioSummary.from_summary(label, *fields)


# Texts at the edges of the quote-free split, with what the csv.reader
# columns read them to: (label, fields) records, or the located error.
_SPLIT_EXAMPLES = {
    "leading-blank-line": (
        "\n" + _SPLIT_SUMMARY,
        "line 1: header must be 'author,citations' or 'author,P,i,eta[,h]', got ''",
    ),
    "blank-lines": (
        "author,P,i,eta\n\nA,3,1.0,0.5\n\n\nB,4,2.0,1\n\n",
        [("A", 3, 1.0, 0.5), ("B", 4, 2.0, 1.0)],
    ),
    "no-final-newline": ("author,citations\nA,4;2;1\nB,3", [("A", [4, 2, 1]), ("B", [3])]),
    "header-only": ("author,P,i,eta,h\n", []),
    "ragged-row": (_SPLIT_SUMMARY + "B,3,1.0\n", "line 3: expected 4 fields, got 3"),
    "nul-label": ("author,P,i,eta\nA\x00B,3,1.0,0.5\n", [("A\x00B", 3, 1.0, 0.5)]),
    "vt-label": ("author,citations\nA\x0bB,4;2\n", [("A\x0bB", [4, 2])]),
    "fs-label": ("author,citations\nA\x1cB,4;2\n", [("A\x1cB", [4, 2])]),
    "line-separator-label": (
        "author,P,i,eta,h\nA\u2028B,3,1.0,0.5,2\n", [("A\u2028B", 3, 1.0, 0.5, 2.0)]
    ),
    "line-over-the-limit": (
        "author,citations\n" + "A" * (_FIELD_LIMIT - 1) + ",1\n",
        [("A" * (_FIELD_LIMIT - 1), [1])],
    ),
    "field-over-the-limit": (
        "author,citations\nA," + "1;" * (_FIELD_LIMIT // 2) + "1\n",
        "line 2: field larger than field limit (131072)",
    ),
    "header-over-the-limit": (
        "author" + " " * _FIELD_LIMIT + ",citations\nA,1\n",
        "line 1: field larger than field limit (131072)",
    ),
    "crlf-line-ends": (
        "author,P,i,eta\r\nA,3,1.0,0.5\r\nB,4,2.0,1\r\n",
        [("A", 3, 1.0, 0.5), ("B", 4, 2.0, 1.0)],
    ),
    "quoted-label": ('author,P,i,eta\n"LI, YF",3,1.0,0.5\n', [("LI, YF", 3, 1.0, 0.5)]),
}

# Cells of either form, good and bad, and labels with the characters a
# line splitter could take for a line end, a quote and a carriage return.
_split_cells = st.sampled_from(
    ["1", "3", "0", "-0.0", "0.5", "1.0", "2.5", "", " 4 ", "4;2;1", "1; 1", "x", "nan", "1e-3", "-1"]
)
_split_labels = st.text(st.sampled_from("aB 0;_-\x00\x0b\x1c\u2028\xa0\"\r"), max_size=4)


@st.composite
def _split_texts(draw):
    """A CSV text of either form: mostly quote-free rows of the header's
    width, with blank lines, a ragged row, odd labels and either line end."""
    header = draw(st.sampled_from(
        ["author,citations", " author , citations", "author,P,i,eta", "author,P,i,eta,h",
         "author, P ,i,eta,h", "author,x", ""]
    ))
    width = header.count(",") + 1
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        lines += [""] * draw(st.integers(0, 1))
        cells = draw(st.lists(_split_cells, min_size=width - 1, max_size=width - 1))
        if draw(st.integers(0, 9)) == 9:  # ragged
            cells = cells[1:] if cells and draw(st.booleans()) else cells + ["1"]
        lines.append(",".join([draw(_split_labels), *cells]))
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end, end + end]))


def _with_split_examples(test):
    for text, _ in _SPLIT_EXAMPLES.values():
        test = example(text=text)(test)
    return test


class TestSplitColumns:
    """A text with no quote and no carriage return is split at ``\\n`` and
    ``,``; it reads as ``csv.reader``'s columns read it."""

    @settings(max_examples=400, deadline=None)
    @given(text=_split_texts())
    @_with_split_examples
    def test_split_columns_read_as_the_reader_columns(self, text):
        records = _csv_columns(text)
        with unittest.mock.patch.object(tabular, "_split_columns", lambda text: None):
            assert records == _csv_columns(text)
        split = _split_columns(text)
        lines = text.split("\n")
        plain = '"' not in text and "\r" not in text
        assert (split is not None) == (plain and max(map(len, lines)) <= _FIELD_LIMIT)
        if split is not None and lines[0]:  # the reader gives [] for a blank line
            header, columns = _read_columns(text)
            assert split == (header, list(map(list, columns)))

    @pytest.mark.parametrize("text, expected", _SPLIT_EXAMPLES.values(), ids=_SPLIT_EXAMPLES)
    def test_edge_texts_read_as_before(self, text, expected):
        if isinstance(expected, list):
            assert parse_input(text, "csv") == [_split_record(*fields) for fields in expected]
            return
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "csv")
        assert str(excinfo.value) == expected
        assert _csv_columns(text) is None


class TestRoundTrips:
    def test_wide_csv_round_trip(self):
        records = [
            PortfolioSummary("A", CitationVector([4, 2, 1])),
            PortfolioSummary("B, Jr.", CitationVector([10, 0])),
        ]
        text = emit_records(records, "csv")
        assert parse_input(text, "csv") == list(records)

    def test_summary_csv_round_trip(self):
        records = [PortfolioSummary.from_summary("A", 45, 48.71, 0.42, h=23)]
        text = emit_records(records, "csv")
        assert parse_input(text, "csv") == records

    def test_wide_json_round_trip(self):
        records = [PortfolioSummary("A", CitationVector([4, 2, 1]))]
        text = emit_records(records, "json")
        assert parse_input(text, "json") == records

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), wide=st.booleans(), form=st.sampled_from(["csv", "json"]))
    def test_emitted_records_parse_back(self, data, wide, form):
        labels = data.draw(st.lists(st.text(max_size=8), unique=True, max_size=5))
        if wide:
            counts = st.lists(st.integers(0, 10**9), min_size=1, max_size=8)
            records = [PortfolioSummary(l, CitationVector(data.draw(counts))) for l in labels]
        else:
            records = [
                PortfolioSummary.from_summary(
                    label,
                    (papers := data.draw(st.integers(1, 10**6))),
                    data.draw(st.floats(0, 1e6)),
                    data.draw(st.floats(0, 1, exclude_min=True)),
                    h=data.draw(st.none() | st.floats(0, min(papers, 1e3))),
                )
                for label in labels
            ]
        assert parse_input(emit_records(records, form), form) == records

    @pytest.mark.parametrize(
        "records, form, text",
        [
            (
                [
                    PortfolioSummary("A", CitationVector([4, 2, 1])),
                    PortfolioSummary("B, Jr.\r", CitationVector([10, 0])),
                ],
                "csv",
                'author,citations\nA,4;2;1\n"B, Jr.\r","10;0"\n',
            ),
            (
                [
                    PortfolioSummary.from_summary("A", 45, 48.71, 0.42, h=23),
                    PortfolioSummary.from_summary("B", 3, 0.1, 1.0),
                ],
                "csv",
                "author,P,i,eta,h\nA,45,48.71,0.42,23.0\nB,3,0.1,1.0,\n",
            ),
            (
                [PortfolioSummary("A", CitationVector([4, 2, 1]))],
                "json",
                json.dumps([{"author": "A", "citations": [4, 2, 1]}], indent=2) + "\n",
            ),
            (
                [
                    PortfolioSummary.from_summary("A", 45, 48.71, 0.42, h=23),
                    PortfolioSummary.from_summary("B", 3, 0.1, 1.0),
                ],
                "json",
                json.dumps(
                    [
                        {"author": "A", "P": 45, "i": 48.71, "eta": 0.42, "h": 23.0},
                        {"author": "B", "P": 3, "i": 0.1, "eta": 1.0},
                    ],
                    indent=2,
                )
                + "\n",
            ),
            ([], "csv", "author,P,i,eta,h\n"),
            ([], "json", "[]\n"),
        ],
        ids=["wide-csv", "summary-csv", "wide-json", "summary-json", "empty-csv", "empty-json"],
    )
    def test_emitted_text(self, records, form, text):
        assert emit_records(records, form) == text

    def test_mixed_records_cannot_be_emitted(self):
        records = [
            PortfolioSummary("A", CitationVector([4, 2, 1])),
            PortfolioSummary.from_summary("B", 10, 5.0, 0.5),
        ]
        with pytest.raises(FormatError):
            emit_records(records, "csv")


class TestEmitTable:
    def test_dimension_row_is_mandatory_and_exact(self):
        table = AnalyticsTable.from_portfolios(
            [PortfolioSummary("A", CitationVector([4, 2, 1]))]
        )
        lines = emit_table(table, "tsv").splitlines()
        assert lines[0].startswith("author\tP\tC\ti\th\tg\tX\tE\tS\teta\tz\ti_E")
        assert lines[1] == (
            "dimensions\t[P]\t[P^2]\t[P]\t[P]\t[P]\t[P^3]\t[P^3]\t[P^3]"
            "\tdimensionless\t[P]\t[P^3/2]"
        )

    def test_percent_signs_in_labels_are_text(self):
        records = [
            PortfolioSummary.from_summary(label, 4, 2.5, 1.0)
            for label in ("%s", "%%", "100%", "%d%(x)s")
        ]
        table = AnalyticsTable.from_portfolios(records, columns=("P", "i"))
        lines = emit_table(table, "tsv").splitlines()[2:]
        assert lines == ["%s\t4\t2.50", "%%\t4\t2.50", "100%\t4\t2.50", "%d%(x)s\t4\t2.50"]

    def test_reference_dimension_row(self):
        lines = emit_table(reconstructed_table(), "tsv").splitlines()
        assert lines[1] == "dimensions\t[P]\t[P]\tdimensionless\t[P]\t[P]\t[P^3/2]\t[P^2]"

    def test_default_precision_two_decimals(self):
        table = AnalyticsTable.from_portfolios(
            [PortfolioSummary("A", CitationVector([4, 2, 1]))]
        )
        row = emit_table(table, "tsv").splitlines()[2].split("\t")
        assert row[table.columns.index("i") + 1] == "2.33"
        assert row[table.columns.index("P") + 1] == "3"  # integral values stay bare

    def test_full_precision_reparses_exactly(self):
        table = reconstructed_table()
        lines = emit_table(table, "tsv", precision=None).splitlines()
        for label, values, line in zip(table.labels, table.rows, lines[2:]):
            fields = line.split("\t")
            assert fields[0] == label
            for value, field in zip(values, fields[1:]):
                assert abs(float(field) - value) <= 1e-12 * max(1.0, abs(value))

    def test_empty_column_selection_is_header_only(self):
        table = AnalyticsTable.from_portfolios(
            [PortfolioSummary("A", CitationVector([4, 2, 1]))], columns=()
        )
        lines = emit_table(table, "tsv").splitlines()
        assert lines[0] == "author"
        assert lines[1] == "dimensions"
        assert lines[2] == "A"

    def test_csv_format(self):
        table = reconstructed_table()
        lines = emit_table(table, "csv").splitlines()
        assert lines[0] == "author," + ",".join(AUTHOR_COLUMNS)

    def test_json_cells_carry_value_and_dimension(self):
        table = reconstructed_table()
        rows = json.loads(emit_table(table, "json"))
        first = rows[0]
        assert first["author"] == "LI YF"
        assert first["P"] == {"value": 142.0, "dimension": "[P]"}
        assert first["i_E"]["dimension"] == "[P^3/2]"
        assert first["i_E"]["reconstructed"] is True
        assert "reconstructed" not in first["h"]

    def test_raw_rows_have_no_reconstructed_flags(self):
        table = AnalyticsTable.from_portfolios(
            [PortfolioSummary("A", CitationVector([4, 2, 1]))]
        )
        rows = json.loads(emit_table(table, "json"))
        assert all("reconstructed" not in cell for cell in rows[0].values() if isinstance(cell, dict))


# Column names include ones outside the registry, with characters that
# JSON escapes and that a %-template must not read as a directive.
_NAMES = VECTOR_LAYOUT + ("w", 'q"t', "100%", "\u00fc")
_DIMS = st.sampled_from(
    [Dimension(0), Dimension(1), Dimension(2), Dimension(3), Dimension(Fraction(3, 2))]
)
_MAGNITUDES = st.one_of(
    st.integers(-(10**6), 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e300, -1e300, 5e-324, 1e-300, 2.0**53, 1e16, 0.5, -0.0]),
)


@st.composite
def _tables(draw):
    """A table through ``from_reports``, with drawn reconstructed flags, plus
    the quantities it was built from."""
    columns = tuple(draw(st.lists(st.sampled_from(_NAMES), max_size=6)))
    dims = {name: draw(_DIMS) for name in columns}
    labeled = []
    for _ in range(draw(st.integers(0, 4))):
        # Labels hold "%" and "s", which a %-template must not read as a directive,
        # and no lone surrogate, which the label rule refuses.
        chars = st.characters(exclude_categories=("Cs",))
        label = draw(st.text(chars | st.sampled_from("%s"), max_size=6))
        labeled.append((label, {n: Quantity(draw(_MAGNITUDES), d) for n, d in dims.items()}))
    flags = tuple(draw(st.frozensets(st.sampled_from(_NAMES))) for _ in labeled)
    table = AnalyticsTable.from_reports(labeled, columns=columns)
    flagged = AnalyticsTable(table.columns, table.dims, table.labels, table.rows, flags)
    return flagged, labeled


_INTEGRAL = st.integers(-(10**6), 10**6).map(float) | st.sampled_from(
    [1e300, -1e300, 2.0**53, 1e16, -0.0]
)
_FRACTIONAL = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()) | st.sampled_from(
    [5e-324, 1e-300, 0.5, -2.5, 0.125]
)


@st.composite
def _column_kind_tables(draw):
    """A table of up to 20 rows whose columns are each all integral, all not, or mixed."""
    columns = tuple(draw(st.lists(st.sampled_from(VECTOR_LAYOUT), max_size=6)))
    count = draw(st.integers(0, 20))
    special = draw(st.sampled_from(["", "\\", "\t", "\n", "\r", "\\\t\n\r"]))
    alphabet = "ab\u00e9,\"%s" + special
    labels = draw(st.lists(st.text(alphabet, max_size=6), min_size=count, max_size=count))
    values = {}
    for name in columns:
        kind = draw(st.sampled_from([_INTEGRAL, _FRACTIONAL, _INTEGRAL | _FRACTIONAL]))
        values[name] = draw(st.lists(kind, min_size=count, max_size=count))
    dims = registry_symbols()
    labeled = [
        (label, {name: Quantity(column[k], dims[name]) for name, column in values.items()})
        for k, label in enumerate(labels)
    ]
    return AnalyticsTable.from_reports(labeled, columns=columns), labeled


def _assert_delimited_matches(table, labeled, precision):
    """TSV and CSV against the per-cell ``format_magnitude`` reference."""
    lines = table_lines(table, labeled, precision)
    assert emit_table(table, "tsv", precision) == tsv_text(lines)
    text = emit_table(table, "csv", precision)
    assert list(csv.reader(io.StringIO(text))) == lines
    if not any("\r" in field for line in lines for field in line):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(lines)
        assert text == out.getvalue()


class TestEmitTableDifferential:
    @settings(max_examples=200, deadline=None)
    @given(drawn=_tables())
    def test_json_matches_the_json_module(self, drawn):
        table, labeled = drawn
        assert emit_table(table, "json") == json.dumps(table_rows(table), indent=2) + "\n"
        for row, (label, report) in zip(table_rows(table), labeled):
            assert row["author"] == label
            for name in table.columns:
                assert row[name]["value"] == report[name].magnitude
                assert row[name]["dimension"] == str(report[name].dim)

    @settings(max_examples=200, deadline=None)
    @given(drawn=_tables(), precision=st.sampled_from([None, 0, 2, 5, 17]))
    def test_delimited_matches_per_cell_formatting(self, drawn, precision):
        _assert_delimited_matches(*drawn, precision)

    @settings(max_examples=300, deadline=None)
    @given(drawn=_column_kind_tables(), precision=st.sampled_from([None, 0, 2, 5, 17]))
    @example(drawn=(AnalyticsTable.from_reports([], columns=("P", "i")), []), precision=17)
    def test_column_kinds_match_per_cell_formatting(self, drawn, precision):
        _assert_delimited_matches(*drawn, precision)


def _format_column_by_cell(values, precision):
    """``_format_column``'s rule with integrality listed cell by cell."""
    if precision is None:
        return "%s", [repr(v) for v in values]
    integral = [v.is_integer() for v in values]
    if all(integral):
        return "%d", list(values)
    if not any(integral):
        return f"%.{precision}f", list(values)
    return "%s", [format_magnitude(v, precision) for v in values]


class TestFormatColumn:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.sampled_from([_INTEGRAL, _FRACTIONAL, _INTEGRAL | _FRACTIONAL]).flatmap(
            lambda kind: st.lists(kind, max_size=20)
        ),
        precision=st.sampled_from([None, 0, 2, 17]),
    )
    @example(values=[], precision=2)
    @example(values=[1.0, 2.5], precision=0)
    @example(values=[2.5, 1.0], precision=17)
    def test_matches_the_cell_by_cell_rule(self, values, precision):
        directive, formatted = _format_column(tuple(values), precision)
        formatted = list(formatted)  # a column of text is an iterator, read once
        assert (directive, formatted) == _format_column_by_cell(values, precision)
        cells = [directive % value for value in formatted]
        assert cells == [format_magnitude(value, precision) for value in values]


class TestEmitMatrix:
    def test_tsv_layout(self):
        matrix = pearson_matrix(published_table(), AUTHOR_COLUMNS)
        lines = emit_matrix(AUTHOR_COLUMNS, matrix, "tsv").splitlines()
        assert lines[0] == "correlation\t" + "\t".join(AUTHOR_COLUMNS)
        first = lines[1].split("\t")
        assert first[0] == "P"
        assert first[1] == "1.00"

    def test_json_layout(self):
        matrix = pearson_matrix(published_table(), ("P", "h"))
        payload = json.loads(emit_matrix(("P", "h"), matrix, "json"))
        assert payload["columns"] == ["P", "h"]
        assert payload["matrix"][0][0] == 1.0

    def test_tsv_escapes_names(self):
        text = emit_matrix(("a\tb", "c\\d"), ((1.0, 0.5), (0.5, 1.0)), "tsv")
        assert text == (
            "correlation\ta\\tb\tc\\\\d\n"
            "a\\tb\t1.00\t0.50\n"
            "c\\\\d\t0.50\t1.00\n"
        )

    @pytest.mark.parametrize("format", ["tsv", "csv", "json"])
    @pytest.mark.parametrize(
        "names, matrix, message",
        [
            (["a", "b"], [[1.0, 0.5]], "matrix must be 2 by 2: a row and a column per name"),
            (["a"], [[1.0, 0.5]], "matrix must be 1 by 1: a row and a column per name"),
            (["a"], [[float("nan")]], "matrix cell must be finite, got nan"),
            (["a"], [["x"]], "matrix cell must be a real number, got 'x'"),
            (["a", 5], [[1.0, 0.5], [0.5, 1.0]], "matrix names must be strings, got 5"),
        ],
        ids=["missing-row", "extra-cell", "nan", "text-cell", "name-no-str"],
    )
    def test_a_matrix_off_its_names_is_refused(self, names, matrix, message, format):
        with pytest.raises(DomainError) as excinfo:
            emit_matrix(names, matrix, format)
        assert str(excinfo.value) == message


def _writers(precision):
    """Each table and matrix writer of the reference tables at ``precision``."""
    table = reconstructed_table()
    matrix = pearson_matrix(published_table(), AUTHOR_COLUMNS)
    formats = ("tsv", "csv", "json")
    return [
        *(lambda f=f: emit_table(table, f, precision) for f in formats),
        *(lambda f=f: emit_matrix(AUTHOR_COLUMNS, matrix, f, precision) for f in formats),
    ]


class TestPrecision:
    @pytest.mark.parametrize(
        "precision, message",
        [
            (-1, "precision must be >= 0, got -1"),
            (18, "precision must be <= 17, got 18"),
            (True, "precision values must be integers, got True"),
            (2.5, "precision values must be integers, got 2.5"),
            ("2", "precision values must be integers, got '2'"),
            (10**400, f"precision must be <= 17, got {shown(10**400)}"),
        ],
        ids=shown,
    )
    def test_the_writers_refuse_a_precision_out_of_the_rule(self, precision, message):
        for write in _writers(precision):
            with pytest.raises(DomainError) as excinfo:
                write()
            assert str(excinfo.value) == message

    def test_the_precision_is_checked_before_the_format(self):
        with pytest.raises(DomainError):
            emit_table(reconstructed_table(), "xml", -1)
        with pytest.raises(DomainError):
            emit_matrix(["P"], [[1.0]], "xml", -1)

    def test_a_numpy_int_precision_writes_as_its_int(self):
        for write, reference in zip(_writers(np.int64(3)), _writers(3)):
            assert write() == reference()

    @pytest.mark.parametrize("precision", [None, 0, 17])
    def test_the_bounds_are_taken(self, precision):
        for write in _writers(precision):
            assert write()


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda: parse_input(WIDE_SAMPLE, "xml"), "unknown input format 'xml'"),
        (lambda: emit_records([], "xml"), "unknown record format 'xml'"),
        (lambda: emit_table(reconstructed_table(), "xml"), "unknown table format 'xml'"),
        (lambda: emit_matrix(["P"], [[1.0]], "xml"), "unknown matrix format 'xml'"),
    ],
    ids=["parse_input", "emit_records", "emit_table", "emit_matrix"],
)
def test_an_unknown_format_is_refused(write, message):
    with pytest.raises(FormatError) as excinfo:
        write()
    assert str(excinfo.value) == message


class TestFormatting:
    def test_format_magnitude(self):
        assert format_magnitude(142.0, 2) == "142"
        assert format_magnitude(0.2, 2) == "0.20"
        assert format_magnitude(2.3333333, 4) == "2.3333"
        assert format_magnitude(885.9736875325361, None) == "885.9736875325361"
