"""CSV/JSON ingestion and table emission contracts."""

import json

import pytest

from scindex import (
    AnalyticsTable,
    FormatError,
    NegativeCountError,
    PortfolioSummary,
    emit_records,
    emit_table,
    parse_input,
)
from scindex.analytics import pearson_matrix
from scindex.datasets import AUTHOR_COLUMNS, published_table, reconstructed_table
from scindex.tabular import emit_matrix, format_magnitude

WIDE_SAMPLE = 'author,citations\nA,"4;2;1"\n'
SUMMARY_SAMPLE = "author,P,i,eta,h\nLI YF,142,33.25,0.20,34\n"


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
        assert excinfo.value.line == 2

    def test_negative_count_reports_record(self):
        text = json.dumps(
            [
                {"author": "A", "citations": [4, 2, 1]},
                {"author": "B", "citations": [1, -1]},
            ]
        )
        with pytest.raises(NegativeCountError) as excinfo:
            parse_input(text, "json")
        assert excinfo.value.line == 2

    def test_boolean_count_reports_record(self):
        text = json.dumps(
            [
                {"author": "A", "citations": [4, 2, 1]},
                {"author": "B", "citations": [True, 2, 1]},
            ]
        )
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "json")
        assert str(excinfo.value) == "line 2: citation counts must be integers, got True"

    def test_non_integral_paper_count_reports_record(self):
        text = json.dumps([{"author": "A", "P": 2.7, "i": 1.0, "eta": 0.5}])
        with pytest.raises(FormatError) as excinfo:
            parse_input(text, "json")
        assert str(excinfo.value) == "line 1: paper count must be an integer, got 2.7"
        text = json.dumps([{"author": "A", "P": 3.0, "i": 1.0, "eta": 0.5}])
        assert parse_input(text, "json")[0].papers == 3

    def test_not_an_array(self):
        with pytest.raises(FormatError):
            parse_input('{"author": "A"}', "json")

    def test_invalid_json(self):
        with pytest.raises(FormatError):
            parse_input("不[", "json")


class TestRoundTrips:
    def test_wide_csv_round_trip(self):
        records = [
            PortfolioSummary.from_vector("A", [4, 2, 1]),
            PortfolioSummary.from_vector("B, Jr.", [10, 0]),
        ]
        text = emit_records(records, "csv")
        assert parse_input(text, "csv") == list(records)

    def test_summary_csv_round_trip(self):
        records = [PortfolioSummary.from_summary("A", 45, 48.71, 0.42, h=23)]
        text = emit_records(records, "csv")
        assert parse_input(text, "csv") == records

    def test_wide_json_round_trip(self):
        records = [PortfolioSummary.from_vector("A", [4, 2, 1])]
        text = emit_records(records, "json")
        assert parse_input(text, "json") == records

    def test_mixed_records_cannot_be_emitted(self):
        records = [
            PortfolioSummary.from_vector("A", [4, 2, 1]),
            PortfolioSummary.from_summary("B", 10, 5.0, 0.5),
        ]
        with pytest.raises(FormatError):
            emit_records(records, "csv")


class TestEmitTable:
    def test_dimension_row_is_mandatory_and_exact(self):
        table = AnalyticsTable.from_portfolios(
            [PortfolioSummary.from_vector("A", [4, 2, 1])]
        )
        lines = emit_table(table, "tsv").splitlines()
        assert lines[0].startswith("author\tP\tC\ti\th\tg\tX\tE\tS\teta\tz\ti_E")
        assert lines[1] == (
            "dimensions\t[P]\t[P^2]\t[P]\t[P]\t[P]\t[P^3]\t[P^3]\t[P^3]"
            "\tdimensionless\t[P]\t[P^3/2]"
        )

    def test_reference_dimension_row(self):
        lines = emit_table(reconstructed_table(), "tsv").splitlines()
        assert lines[1] == "dimensions\t[P]\t[P]\tdimensionless\t[P]\t[P]\t[P^3/2]\t[P^2]"

    def test_default_precision_two_decimals(self):
        table = AnalyticsTable.from_portfolios(
            [PortfolioSummary.from_vector("A", [4, 2, 1])]
        )
        row = emit_table(table, "tsv").splitlines()[2].split("\t")
        assert row[table.columns.index("i") + 1] == "2.33"
        assert row[table.columns.index("P") + 1] == "3"  # integral values stay bare

    def test_full_precision_reparses_exactly(self):
        table = reconstructed_table()
        lines = emit_table(table, "tsv", precision=None).splitlines()
        for label, cells, line in zip(table.labels, table.cells, lines[2:]):
            fields = line.split("\t")
            assert fields[0] == label
            for quantity, field in zip(cells, fields[1:]):
                assert abs(float(field) - quantity.magnitude) <= 1e-12 * max(
                    1.0, abs(quantity.magnitude)
                )

    def test_empty_column_selection_is_header_only(self):
        table = AnalyticsTable.from_portfolios(
            [PortfolioSummary.from_vector("A", [4, 2, 1])], columns=()
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
            [PortfolioSummary.from_vector("A", [4, 2, 1])]
        )
        rows = json.loads(emit_table(table, "json"))
        assert all("reconstructed" not in cell for cell in rows[0].values() if isinstance(cell, dict))


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


class TestFormatting:
    def test_format_magnitude(self):
        assert format_magnitude(142.0, 2) == "142"
        assert format_magnitude(0.2, 2) == "0.20"
        assert format_magnitude(2.3333333, 4) == "2.3333"
        assert format_magnitude(885.9736875325361, None) == "885.9736875325361"
