"""Command-line contract: subcommands, exit codes, error rendering."""

import itertools
import json
import subprocess
import sys

import pytest

from scindex import CitationVector, scaling
from scindex.cli import main

WIDE_CSV = 'author,citations\nA,"4;2;1"\nB,"10;5;3;2;1"\nC,"7;7;7"\n'
SUMMARY_CSV = (
    "author,P,i,eta,h\n"
    "LI YF,142,33.25,0.20,34\n"
    "KREBS FC,96,73.05,0.24,41\n"
    "YANG Y,78,128.65,0.12,37\n"
)


@pytest.fixture()
def wide_file(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(WIDE_CSV)
    return str(path)


@pytest.fixture()
def summary_file(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(SUMMARY_CSV)
    return str(path)


class TestDims:
    def test_quotient(self, capsys):
        assert main(["dims", "C/P"]) == 0
        assert capsys.readouterr().out == "[P]\n"

    def test_z_formula(self, capsys):
        assert main(["dims", "(eta*i^2*P)^(1/3)"]) == 0
        assert capsys.readouterr().out == "[P]\n"

    def test_heterogeneous_sum_exits_one(self, capsys):
        assert main(["dims", "i_E + h"]) == 1
        err = capsys.readouterr().err
        assert "cannot add" in err
        assert "[P^3/2]" in err and "[P]" in err
        assert "i_E + h" in err  # names the failing expression

    def test_parse_error_exits_one(self, capsys):
        assert main(["dims", "i_E + + h"]) == 1
        assert "position 6" in capsys.readouterr().err

    def test_unknown_symbol_exits_one(self, capsys):
        assert main(["dims", "Q/P"]) == 1
        assert "Q" in capsys.readouterr().err


class TestProbe:
    def test_single_index_passes(self, capsys):
        code = main(["probe", "--index", "C", "--base", "4;2;1", "--lambdas", "1,2,3,4,5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == [
            "index", "declared", "slope", "max_residual", "verdict", "note",
        ]
        fields = lines[1].split("\t")
        assert fields[0] == "C"
        assert fields[1] == "2"
        assert fields[2] == "2.000000"
        assert fields[4] == "pass"

    def test_euclidean_slope(self, capsys):
        assert main(["probe", "--index", "i_E", "--base", "4;2;1"]) == 0
        assert "\t1.500000\t" in capsys.readouterr().out

    def test_failure_exits_two(self, capsys):
        code = main(["probe", "--index", "g", "--base", "4;2;1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "fail" in captured.out
        assert "g" in captured.err

    def test_zero_series_note(self, capsys):
        assert main(["probe", "--index", "S", "--base", "3;3;3"]) == 0
        assert "exactly zero at all scales: consistent" in capsys.readouterr().out

    def test_bad_lambdas_exit_one(self, capsys):
        assert main(["probe", "--base", "4;2;1", "--lambdas", "1,zwei"]) == 1
        assert "lambdas" in capsys.readouterr().err
        assert main(["probe", "--base", "4;2;1", "--lambdas", "3,2,1"]) == 1
        assert "strictly increasing" in capsys.readouterr().err

    def test_oversized_lambda_exits_one_without_building(self, capsys, monkeypatch):
        # The refused replica would hold 3e9 counts; the guard reads at most
        # 100 items of any replica handed to the constructor and fails there.
        def guarded(counts):
            head = list(itertools.islice(counts, 100))
            assert len(head) < 100, "an over-limit replica was being built"
            return CitationVector(head)

        monkeypatch.setattr(scaling, "CitationVector", guarded)
        assert main(["probe", "--base", "4;2;1", "--lambdas", "1,2,1000000000"]) == 1
        err = capsys.readouterr().err
        assert "replication factor 1000000000" in err
        assert "limit of 1000000" in err

    def test_bad_base_exit_one(self, capsys):
        assert main(["probe", "--base", "4;x;1"]) == 1
        assert "'x'" in capsys.readouterr().err

    def test_unknown_index_exit_one(self, capsys):
        assert main(["probe", "--base", "4;2;1", "--index", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_svg_written(self, tmp_path, capsys):
        svg_path = tmp_path / "plot.svg"
        code = main(
            ["probe", "--index", "C,i_E", "--base", "4;2;1", "--svg", str(svg_path)]
        )
        assert code == 0
        svg = svg_path.read_text()
        assert "C: slope 2.00" in svg
        assert "i_E: slope 1.50" in svg
        points = (tmp_path / "plot.csv").read_text().splitlines()
        assert points[0] == "series,x,y"
        assert len(points) == 11  # two series x five scales


class TestCompute:
    def test_wide_table(self, wide_file, capsys):
        assert main(["compute", wide_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "author\tP\tC\ti\th\tg\tX\tE\tS\teta\tz\ti_E"
        assert lines[1].startswith("dimensions\t[P]\t[P^2]")
        assert lines[2].split("\t")[0] == "A"

    def test_column_selection(self, wide_file, capsys):
        assert main(["compute", wide_file, "--columns", "P,i_E"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "author\tP\ti_E"
        assert lines[1] == "dimensions\t[P]\t[P^3/2]"

    def test_summary_input_carries_h(self, summary_file, capsys):
        assert main(["compute", summary_file, "--columns", "P,h,z,i_E,C"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split("\t")[2] == "34"

    def test_precision_flag(self, wide_file, capsys):
        assert main(["compute", wide_file, "--columns", "i", "--precision", "4"]) == 0
        assert "2.3333" in capsys.readouterr().out

    def test_precision_env(self, wide_file, capsys, monkeypatch):
        monkeypatch.setenv("SCINDEX_PRECISION", "5")
        assert main(["compute", wide_file, "--columns", "i"]) == 0
        assert "2.33333" in capsys.readouterr().out

    def test_flag_overrides_env(self, wide_file, capsys, monkeypatch):
        monkeypatch.setenv("SCINDEX_PRECISION", "5")
        assert main(["compute", wide_file, "--columns", "i", "--precision", "1"]) == 0
        assert "2.3\n" in capsys.readouterr().out

    def test_json_output(self, wide_file, capsys):
        assert main(["compute", wide_file, "--output-format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["author"] == "A"
        assert rows[0]["E"] == {"value": 21.0, "dimension": "[P^3]"}

    def test_missing_file_exits_one(self, capsys):
        assert main(["compute", "/nonexistent/input.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_negative_count_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text('author,citations\nA,"4;2;1"\nB,"1;-3"\n')
        assert main(["compute", str(path)]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["huge.csv", "huge.json"])
    def test_huge_count_names_portfolio(self, tmp_path, capsys, name):
        huge = 10**200
        path = tmp_path / name
        if name.endswith(".json"):
            rows = [{"author": "A", "citations": [4]}, {"author": "Big", "citations": [huge, 1]}]
            path.write_text(json.dumps(rows))
        else:
            path.write_text(f'author,citations\nA,"4"\nBig,"{huge};1"\n')
        assert main(["compute", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: portfolio 'Big': ")
        assert "floating-point range" in err

    def test_output_file(self, wide_file, tmp_path, capsys):
        out = tmp_path / "table.tsv"
        assert main(["compute", wide_file, "-o", str(out)]) == 0
        assert out.read_text().startswith("author\t")

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(WIDE_CSV))
        assert main(["compute", "-"]) == 0
        assert "A\t3" in capsys.readouterr().out

    def test_usage_error_exits_one(self, capsys):
        assert main(["compute"]) == 1


class TestCorrelate:
    def test_matrix_layout(self, wide_file, capsys):
        assert main(["correlate", wide_file, "--columns", "P,C,i"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "correlation\tP\tC\ti"
        assert lines[1].split("\t")[1] == "1.00"

    def test_zero_variance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text('author,citations\nA,"1"\nB,"1"\nC,"1"\n')
        assert main(["correlate", str(path), "--columns", "P,C"]) == 1
        assert "zero variance" in capsys.readouterr().err


class TestTable1:
    def test_dimension_row_bytes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert (
            "dimensions\t[P]\t[P]\tdimensionless\t[P]\t[P]\t[P^3/2]\t[P^2]\n" in out
        )

    def test_correlation_block_present(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "correlation\tP\ti\teta\th\tz\ti_E\tC" in out

    def test_json_marks_reconstructed_cells(self, capsys):
        assert main(["table1", "--output-format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        first = payload["table"][0]
        assert first["author"] == "LI YF"
        assert first["C"]["reconstructed"] is True
        assert "reconstructed" not in first["P"]
        assert "reconstructed" not in first["h"]
        matrix = payload["correlation"]["matrix"]
        assert matrix[0][0] == 1.0

    def test_csv_output(self, capsys):
        assert main(["table1", "--output-format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "author,P,i,eta,h,z,i_E,C"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scindex", "dims", "C/P"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "[P]\n"

    def test_module_invocation_failure(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scindex", "dims", "i_E + h"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "cannot add" in proc.stderr
