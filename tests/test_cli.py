"""Command-line contract: subcommands, exit codes, error rendering."""

import argparse
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
import xml.dom.minidom
from pathlib import Path

import pytest

from scindex import (
    PortfolioSummary, analytics, cli, datasets, emit_records, indicators, pearson_matrix,
    scaling, svgplot, tabular,
)
from scindex.cli import main
from scindex.datasets import AUTHOR_COLUMNS, published_table, reconstructed_table
from scindex.errors import FormatError, shown
from scindex.scaling import MAX_LAMBDAS

from oracles import table_rows

WIDE_CSV = 'author,citations\nA,"4;2;1"\nB,"10;5;3;2;1"\nC,"7;7;7"\n'
SUMMARY_CSV = (
    "author,P,i,eta,h\n"
    "LI YF,142,33.25,0.20,34\n"
    "KREBS FC,96,73.05,0.24,41\n"
    "YANG Y,78,128.65,0.12,37\n"
)
SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_a_refused_expression_is_raised_for_main_to_print(self, capsys):
        with pytest.raises(FormatError) as excinfo:
            cli._cmd_dims(argparse.Namespace(expression="Q/P"))
        assert str(excinfo.value) == "in expression 'Q/P': unknown symbol 'Q'"
        assert capsys.readouterr() == ("", "")

    def test_parse_error_exits_one(self, capsys):
        assert main(["dims", "i_E + + h"]) == 1
        assert "position 6" in capsys.readouterr().err

    def test_unknown_symbol_exits_one(self, capsys):
        assert main(["dims", "Q/P"]) == 1
        assert "Q" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expression",
        [
            "P^(2^2^2^2^2^2)",
            "P^(2^2^2^2^2)",
            "P^(3^9999999)",
            "P^1" + "0" * 5000,
            "(" * 600 + "P" + ")" * 600,
            "+".join(["P"] * 5000),
            "P^\u0662",
            "P^(1/\uff13)",
            "P^0^-1",
        ],
        ids=["tower-6", "tower-5", "3^9999999", "5001-digits", "600-parens", "5000-terms",
             "arabic-indic-digit", "fullwidth-digit", "zero-to-minus-one"],
    )
    def test_unbounded_expression_exits_one(self, capsys, expression):
        assert main(["dims", expression]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: in expression {shown(expression)}: expected ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "expression, limit",
        [("P+" * 2999 + "P", 200), ("Q" * 999, 200), ("P^" + "9" * 998, 250)],
        ids=["sum", "symbol", "literal"],
    )
    def test_a_long_refused_expression_is_echoed_cut(self, capsys, expression, limit):
        # The expression and any symbol or literal its error names are cut
        # at 40 characters, so the line stays short.
        assert main(["dims", expression]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < limit
        assert err.startswith(f"error: in expression '{expression[:39]}... ({len(expression)} characters): ")

    def test_a_short_refused_expression_reads_as_before(self, capsys):
        assert main(["dims", "P +* C"]) == 1
        assert capsys.readouterr().err == (
            "error: in expression 'P +* C': expected a symbol or '(' at position 3, found '*'\n"
        )


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

    def test_unordered_lambdas_exit_one_on_an_all_zero_series(self, capsys):
        assert main(["probe", "--base", "5;5;5", "--index", "S", "--lambdas", "3,2,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: indicator S: scale factors must be strictly increasing\n"

    @pytest.mark.parametrize(
        "lambdas, message",
        [
            ("1", "log-log fit needs at least 3 points, got 1"),
            (
                ",".join(map(str, range(1, MAX_LAMBDAS + 2))),
                f"at most {MAX_LAMBDAS} scale factors may be given, got more than {MAX_LAMBDAS}",
            ),
        ],
        ids=["one", "over-bound"],
    )
    def test_too_few_or_too_many_lambdas_exit_one(self, lambdas, message, tmp_path, capsys):
        svg = tmp_path / "plot.svg"
        argv = ["probe", "--base", "5;5;5", "--index", "S", "--lambdas", lambdas, "--svg", str(svg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: indicator S: {message}\n"
        assert not svg.exists()

    def test_huge_lambda_probes_without_building_the_replica(self, capsys, monkeypatch):
        # The replica at lambda 1e9 stands for 3e9 papers.  With the build
        # limit at zero, any replica whose counts were built would fail.
        monkeypatch.setattr(indicators, "MAX_REPLICA_COUNTS", 0)
        assert main(["probe", "--base", "4;2;1", "--lambdas", "1,2,1000000000"]) == 0
        assert capsys.readouterr().out.count("\tpass\t") == 11

    def test_lambda_beyond_the_float_range_exits_one(self, capsys):
        lam = 10**110
        assert main(["probe", "--base", "4;2;1", "--lambdas", f"1,2,{lam}"]) == 1
        assert capsys.readouterr().err == (
            f"error: indicator P at lambda {shown(lam)}: "
            "citation sums exceed the floating-point range\n"
        )

    def test_the_rank_indices_share_the_float_range_rule(self, capsys):
        lam = 10**110
        argv = ["probe", "--base", "4;2;1", "--lambdas", f"1,2,{lam}", "--index", "h,g"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: indicator h at lambda {shown(lam)}: "
            "citation sums exceed the floating-point range\n"
        )

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
    def test_bad_tolerance_exits_one(self, capsys, value, shown):
        code = main(["probe", "--base", "4;2;1", "--index", "C", "--tolerance", value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: --tolerance must be a finite number >= 0, got {shown}\n"
        )

    @pytest.mark.parametrize("value", ["1_0", "\u0660", "0x1", ""])
    def test_tolerance_follows_the_number_rule(self, capsys, value):
        code = main(["probe", "--base", "4;2;1", "--index", "C", "--tolerance", value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: invalid --tolerance value {value!r}\n"

    def test_zero_tolerance_accepted(self, capsys):
        code = main(["probe", "--base", "4;2;1", "--index", "C", "--tolerance", "0"])
        assert code in (0, 2)
        assert capsys.readouterr().out.startswith("index\t")

    def test_bad_base_exit_one(self, capsys):
        assert main(["probe", "--base", "4;x;1"]) == 1
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, message",
        [
            (" ; ;", "--base needs at least one citation count"),
            ("4;-1", "negative citation count -1"),
        ],
    )
    def test_base_errors_name_the_option(self, capsys, base, message):
        assert main(["probe", "--base", base]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--base", "4;1_0;1"], "invalid citation count '1_0' in --base"),
            (["--base", "4;2;1", "--lambdas", "1,2_0,3"], "invalid --lambdas value '1,2_0,3'"),
        ],
    )
    def test_digit_separators_exit_one(self, capsys, options, message):
        assert main(["probe", *options]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_index_exit_one(self, capsys):
        assert main(["probe", "--base", "4;2;1", "--index", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_no_lambdas_exit_one(self, capsys):
        assert main(["probe", "--base", "4;2;1", "--lambdas", ","]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --lambdas needs at least one scale factor\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["probe", "--base", "4;2;1", "--lambdas", "1,2," + "9" * 5000],
                "invalid --lambdas value " + shown("1,2," + "9" * 5000),
            ),
            (
                ["probe", "--base", "4;2;1", "--tolerance", "x" * 5000],
                "invalid --tolerance value " + shown("x" * 5000),
            ),
            (
                ["probe", "--base", "4;2;1", "--index", "x" + "1" * 5000],
                "unknown indicator " + shown("x" + "1" * 5000),
            ),
            (
                ["probe", "--base", "4;2;1", "--index", "C", "--lambdas", f"1,2,{10**299}"],
                f"indicator C at lambda {shown(10**299)}: "
                "citation sums exceed the floating-point range",
            ),
            (
                ["table1", "--precision", "9" * 5000],
                f"invalid precision {shown('9' * 5000)} (expected an integer or 'full')",
            ),
            (
                ["table1", "--precision", "9" * 400],
                f"precision must be <= 17, got {shown(10**400 - 1)}",
            ),
        ],
        ids=["lambdas", "tolerance", "index", "lambda-overflow", "precision", "precision-bound"],
    )
    def test_a_long_option_value_is_echoed_cut(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert len(captured.err) < 160

    @pytest.mark.parametrize("index", [",", " , ", ""])
    def test_no_index_names_exit_one(self, index, capsys):
        assert main(["probe", "--base", "4;2;1", "--index", index, "--lambdas", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --index needs at least one indicator name\n"

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
    def test_svg_with_nothing_to_plot_writes_nothing(self, to_file, tmp_path, capsys):
        # S is exactly zero at every scale on a uniform base: the probe
        # passes, but no series can go on log-log axes.
        svg = tmp_path / "plot.svg"
        table = tmp_path / "table.tsv"
        argv = ["probe", "--base", "5;5;5", "--index", "S", "--svg", str(svg)]
        assert main(argv + (["-o", str(table)] if to_file else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --svg has nothing to plot: "
            "no selected indicator is positive at every scale factor\n"
        )
        assert sorted(tmp_path.iterdir()) == []

    def test_svg_leaves_out_series_that_are_not_positive(self, tmp_path, capsys):
        svg_path = tmp_path / "plot.svg"
        argv = ["probe", "--base", "5;5;5", "--index", "S,C", "--svg", str(svg_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("\tpass\t") == 2
        svg = svg_path.read_text()
        assert "C: slope 2.00" in svg and "S: slope" not in svg

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

    def test_a_constant_series_plots(self, tmp_path, capsys):
        # eta is dimensionless, so its series is flat and the plot widens
        # its y range about the one value.
        svg_path = tmp_path / "p.svg"
        assert main(["probe", "--base", "4;2;1", "--index", "eta", "--svg", str(svg_path)]) == 0
        assert "\tpass\t" in capsys.readouterr().out
        xml.dom.minidom.parseString(svg_path.read_text())
        header, *rows = (tmp_path / "p.csv").read_text().splitlines()
        assert header == "series,x,y"
        assert len(rows) == 5
        for row in rows:
            name, _, y = row.split(",")
            assert name == "eta" and float(y) == pytest.approx(7 / 9, rel=1e-12)

    @pytest.mark.parametrize(
        "outputs, message",
        [
            (["--svg", "plot.csv"], "--svg and the points file of --svg name the same file 'plot.csv'"),
            (
                ["--svg", "same.svg", "-o", "same.csv"],
                "-o and the points file of --svg name the same file 'same.csv'",
            ),
            (["-o", "x.svg", "--svg", "x.svg"], "-o and --svg name the same file 'x.svg'"),
            (["--svg", "p.svg", "-o", "sub/../p.svg"], "-o and --svg name the same file 'p.svg'"),
            (["--svg", "."], "--svg '.' names no file"),
            # "-" is stdout for -o; a plot and its points file cannot go there.
            (["--svg", "-"], "--svg '-' names no file"),
        ],
        ids=[
            "svg-is-its-points", "output-is-points", "output-is-svg", "same-resolved", "no-name",
            "svg-is-stdout",
        ],
    )
    def test_outputs_naming_one_file_are_refused(
        self, outputs, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["probe", "--base", "4;2;1", "--index", "C", *outputs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["sub"]

    @pytest.mark.parametrize(
        "outputs, message",
        [
            (["-o", "t.tsv", "--svg", "sub"], "--svg 'sub' is a directory"),
            (["-o", "sub", "--svg", "p.svg"], "-o 'sub' is a directory"),
            (["-o", "t.tsv", "--svg", "sub.svg"], "the points file of --svg 'sub.csv' is a directory"),
        ],
        ids=["svg", "output", "points"],
    )
    def test_an_output_that_is_a_directory_is_refused_first(
        self, outputs, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        for name in ("sub", "sub.csv"):
            (tmp_path / name).mkdir()
        assert main(["probe", "--base", "4;2;1", *outputs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["sub", "sub.csv"]

    def test_distinct_outputs_are_all_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["probe", "--base", "4;2;1", "--index", "C", "--svg", "plot.svg", "-o", "table.tsv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plot.csv", "plot.svg", "table.tsv"]
        assert (tmp_path / "table.tsv").read_text().startswith("index\tdeclared\t")


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

    def test_each_summary_row_is_checked_once(self, tmp_path, monkeypatch, capsys):
        # A JSON summary record is checked as it is read and again when it is
        # rebuilt; only the CSV reader checks a file's summaries by columns.
        records = [
            PortfolioSummary.from_summary(
                f"A{k}", 1 + k % 300, (k % 97) / 3, 0.1 + (k % 9) / 10, h=min(1 + k % 300, k % 50)
            )
            for k in range(6000)
        ]
        path = tmp_path / "summary.csv"
        path.write_text(emit_records(records, "csv"))
        calls = []
        check = analytics._check_summary
        monkeypatch.setattr(analytics, "_check_summary", lambda *a: calls.append(a) or check(*a))
        assert main(["compute", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 6000
        assert len(calls) == 6000

    @pytest.mark.parametrize("form", ["csv", "json"])
    def test_a_negative_zero_summary_prints_zero(self, form, tmp_path, capsys):
        text = {
            "csv": "author,P,i,eta,h\nA,3,-0.0,0.5,-0.0\n",
            "json": '[{"author": "A", "P": 3, "i": -0.0, "eta": 0.5, "h": -0.0}]',
        }[form]
        path = tmp_path / f"summary.{form}"
        path.write_text(text)
        argv = ["compute", str(path), "--columns", "C,i,h"]
        assert main([*argv, "--precision", "full"]) == 0
        assert capsys.readouterr().out.splitlines()[2] == "A\t0.0\t0.0\t0.0"
        assert main([*argv, "--output-format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert [repr(row[name]["value"]) for name in ("C", "i", "h")] == ["0.0"] * 3

    def test_precision_flag(self, wide_file, capsys):
        assert main(["compute", wide_file, "--columns", "i", "--precision", "4"]) == 0
        assert "2.3333" in capsys.readouterr().out

    def test_precision_env(self, wide_file, capsys, monkeypatch):
        monkeypatch.setenv("SCINDEX_PRECISION", "5")
        assert main(["compute", wide_file, "--columns", "i"]) == 0
        assert "2.33333" in capsys.readouterr().out

    def test_precision_digit_separator(self, wide_file, capsys):
        assert main(["compute", wide_file, "--precision", "1_0"]) == 1
        assert capsys.readouterr().err == (
            "error: invalid precision '1_0' (expected an integer or 'full')\n"
        )

    def test_precision_bound_flag(self, wide_file, capsys):
        assert main(["compute", wide_file, "--precision", "17"]) == 0
        assert "\t2.33333333333333348\t" in capsys.readouterr().out
        assert main(["compute", wide_file, "--precision", "18"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: precision must be <= 17, got 18\n"

    def test_precision_bound_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SCINDEX_PRECISION", "400")
        assert main(["table1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: in SCINDEX_PRECISION: precision must be <= 17, got 400\n"
        monkeypatch.setenv("SCINDEX_PRECISION", "full")
        assert main(["table1"]) == 0
        assert "\t885.9736875325361\t" in capsys.readouterr().out

    def test_a_long_precision_env_value_is_echoed_cut(self, wide_file, capsys, monkeypatch):
        monkeypatch.setenv("SCINDEX_PRECISION", "9" * 5000)
        assert main(["compute", wide_file]) == 1
        assert capsys.readouterr().err == (
            f"error: in SCINDEX_PRECISION: invalid precision {shown('9' * 5000)} "
            "(expected an integer or 'full')\n"
        )

    @pytest.mark.parametrize("command", ["compute", "correlate"])
    def test_a_long_unknown_column_is_echoed_cut(self, command, wide_file, capsys):
        name = "x" + "1" * 5000
        assert main([command, wide_file, "--columns", name]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown indicator {shown(name)}\n"

    @pytest.mark.parametrize("command", ["compute", "correlate"])
    @pytest.mark.parametrize("columns", [",", " , ", ""])
    def test_no_column_names_exit_one(self, command, columns, wide_file, capsys):
        assert main([command, wide_file, "--columns", columns]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --columns needs at least one indicator name\n"

    def test_precision_env_errors_name_the_variable(self, wide_file, capsys, monkeypatch):
        monkeypatch.setenv("SCINDEX_PRECISION", "abc")
        assert main(["compute", wide_file]) == 1
        assert capsys.readouterr().err == (
            "error: in SCINDEX_PRECISION: invalid precision 'abc' (expected an integer or 'full')\n"
        )
        assert main(["compute", wide_file, "--precision", "abc"]) == 1
        assert capsys.readouterr().err == (
            "error: invalid precision 'abc' (expected an integer or 'full')\n"
        )

    def test_flag_overrides_env(self, wide_file, capsys, monkeypatch):
        monkeypatch.setenv("SCINDEX_PRECISION", "5")
        assert main(["compute", wide_file, "--columns", "i", "--precision", "1"]) == 0
        assert "2.3\n" in capsys.readouterr().out

    def test_json_output(self, wide_file, capsys):
        assert main(["compute", wide_file, "--output-format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["author"] == "A"
        assert rows[0]["E"] == {"value": 21.0, "dimension": "[P^3]"}

    def test_header_only_input_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("author,citations\n")
        assert main(["compute", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot infer columns for an empty table\n"

    @pytest.mark.parametrize(
        "columns, code, out, err",
        [
            ("zz", 1, "", "error: unknown indicator 'zz'\n"),
            ("P,h", 0, "author\tP\th\ndimensions\t[P]\t[P]\n", ""),
        ],
    )
    def test_header_only_input_with_columns(self, columns, code, out, err, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("author,citations\n")
        assert main(["compute", str(path), "--columns", columns]) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("command", ["compute", "correlate"])
    def test_an_indicator_missing_from_the_table_is_found_on_the_table(
        self, command, summary_file, monkeypatch, capsys
    ):
        calls = []
        parse = cli.parse_input
        monkeypatch.setattr(cli, "parse_input", lambda *a: calls.append(a) or parse(*a))
        assert main([command, summary_file, "--columns", "P,g"]) == 1
        assert capsys.readouterr() == ("", "error: unknown indicator 'g'\n")
        assert len(calls) == 1

    def test_negative_precision_exits_one(self, wide_file, capsys):
        assert main(["compute", wide_file, "--precision", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: precision must be >= 0, got -1\n"

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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'author,citations\nA,"4"\nB,\n', "error: line 3: portfolio 'B' has no papers"),
            (b'[{"author": "B", "citations": []}]', "error: record 1: portfolio 'B' has no papers"),
            (b'author,citations\nA,"4"\nA,"1"\n', "error: line 3: duplicate author 'A'"),
            (b'author,citations\nA,"\xff"\n', "error: line 2: input is not UTF-8"),
            (
                b"author,P,i,eta\nA,1" + b"0" * 400 + b",2,0.5\n",
                "error: line 2: paper count exceeds the floating-point range",
            ),
            (
                b"author,P,i,eta\nA,1" + b"0" * 300 + b",1e10,0.5\n",
                "error: portfolio 'A': quantity magnitude must be finite, got inf",
            ),
            (
                b'author,citations\nA,"' + b";".join([b"123456"] * 20_000) + b'"\n',
                "error: line 2: field larger than field limit",
            ),
        ],
        ids=[
            "empty-csv-row",
            "empty-json-record",
            "duplicate-label",
            "not-utf8",
            "huge-summary-P",
            "overflowing-summary",
            "oversized-csv-field",
        ],
    )
    def test_malformed_input_exits_one_with_location(self, tmp_path, capsys, data, message):
        path = tmp_path / ("in.json" if data.startswith(b"[") else "in.csv")
        path.write_bytes(data)
        assert main(["compute", str(path)]) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + WIDE_CSV.encode())
        assert main(["compute", str(path)]) == 0
        assert "A\t3" in capsys.readouterr().out

    def test_output_file(self, wide_file, tmp_path, capsys):
        out = tmp_path / "table.tsv"
        assert main(["compute", wide_file, "-o", str(out)]) == 0
        assert out.read_text().startswith("author\t")

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(WIDE_CSV.encode())))
        assert main(["compute", "-"]) == 0
        assert "A\t3" in capsys.readouterr().out

    def test_stdin_is_decoded_as_utf8(self, capsys, monkeypatch):
        import io

        data = b"author,citations\nA,\xff\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["compute", "-"]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: input is not UTF-8")

    def test_input_size_is_bounded(self, tmp_path, capsys, monkeypatch):
        import io

        assert tabular.MAX_INPUT_BYTES == 8 * 2**20
        limit = len(WIDE_CSV.encode())
        monkeypatch.setattr(tabular, "MAX_INPUT_BYTES", limit)
        fits, over = tmp_path / "fits.csv", tmp_path / "over.csv"
        fits.write_text(WIDE_CSV)
        over.write_text(WIDE_CSV + "\n")
        assert main(["compute", str(fits)]) == 0
        assert main(["compute", str(over)]) == 1
        message = f"is larger than the limit of {limit} bytes\n"
        assert capsys.readouterr().err == f"error: input {shown(str(over))} {message}"
        for data, code in ((WIDE_CSV, 0), (WIDE_CSV + "\n", 1)):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data.encode())))
            assert main(["compute", "-"]) == code
        assert capsys.readouterr().err == f"error: input stdin {message}"

    def test_tsv_escapes_tab_and_newline_in_labels(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text('author,citations\n"A\tB","4;2"\n"C\nD","1"\n')
        assert main(["compute", str(path), "--columns", "P,C"]) == 0
        assert capsys.readouterr().out == (
            "author\tP\tC\ndimensions\t[P]\t[P^2]\nA\\tB\t2\t6\nC\\nD\t1\t1\n"
        )

    def test_usage_error_exits_one(self, capsys):
        assert main(["compute"]) == 1

    @pytest.mark.parametrize("command", ["compute", "correlate"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--precision", "zz"], "invalid precision 'zz' (expected an integer or 'full')"),
            (["--columns", ","], "--columns needs at least one indicator name"),
            (["--columns", ",", "--precision", "zz"], "--columns needs at least one indicator name"),
            (["--columns", "zz"], "unknown indicator 'zz'"),
            (["--columns", "P,zz,yy"], "unknown indicator 'zz'"),
            (["--columns", "zz", "--precision", "zz"], "unknown indicator 'zz'"),
        ],
        ids=[
            "precision", "columns", "both", "unknown", "unknown-after-known",
            "unknown-and-precision",
        ],
    )
    def test_options_are_checked_before_the_input_is_read(
        self, command, options, message, tmp_path, monkeypatch, capsys
    ):
        calls = []
        parse = cli.parse_input
        monkeypatch.setattr(cli, "parse_input", lambda *a: calls.append(a) or parse(*a))
        bad = tmp_path / "bad.csv"
        bad.write_text('author,citations\nA,"1;-3"\n')
        for source in (str(bad), str(tmp_path / "missing.csv")):
            assert main([command, source, *options]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert calls == []


class TestOSErrors:
    """An OS error prints as ``OSError`` does, each file name by the 40-character rule."""

    def test_missing_input(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["compute", "missing.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: 'missing.csv'\n"

    def test_a_long_input_name_is_echoed_cut(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        name = "y" * 296 + ".csv"
        assert main(["compute", name]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: [Errno 36] File name too long: '" + "y" * 39 + "... (300 characters)\n"
        )

    @pytest.mark.parametrize(
        "output, shown_name",
        [
            ("nodir/out.tsv", "'nodir/out.tsv'"),
            ("nodir/" + "x" * 200, "'nodir/" + "x" * 33 + "... (206 characters)"),
        ],
        ids=["short", "long"],
    )
    def test_output_into_a_missing_directory(
        self, output, shown_name, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "-o", output]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {shown_name}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "bad.csv"],
            ["correlate", "bad.csv"],
            ["table1"],
            ["probe", "--base", "1;-3"],
        ],
        ids=["compute", "correlate", "table1", "probe"],
    )
    @pytest.mark.parametrize("output", ["sub", "sub/"], ids=["name", "trailing-slash"])
    def test_an_output_that_is_a_directory_is_refused_before_the_input_is_read(
        self, argv, output, tmp_path, monkeypatch, capsys
    ):
        # Each input is malformed too: the bad count, and a bundled table
        # that raises when it is built.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "bad.csv").write_text('author,citations\nA,"1;-3"\n')
        monkeypatch.setattr(datasets, "reconstructed_table", _raise_runtime_error)
        assert main([*argv, "-o", output]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: -o 'sub' is a directory\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.csv", "sub"]

    def test_a_dash_output_is_stdout(self, wide_file, capsys):
        assert main(["compute", wide_file, "--columns", "P", "-o", "-"]) == 0
        assert capsys.readouterr().out.startswith("author\tP\n")

    def test_a_second_file_name_is_echoed_cut(self, monkeypatch, capsys):
        def fail(args):
            raise OSError(18, "Invalid cross-device link", "a.tsv", None, "b" * 50)

        monkeypatch.setattr(cli, "_cmd_table1", fail)
        assert main(["table1"]) == 1
        assert capsys.readouterr().err == (
            "error: [Errno 18] Invalid cross-device link: 'a.tsv' -> '"
            + "b" * 39
            + "... (50 characters)\n"
        )

    def test_an_error_without_a_file_name_reads_as_str(self, monkeypatch, capsys):
        def fail(args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_cmd_table1", fail)
        assert main(["table1"]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


class TestCorrelate:
    def test_matrix_layout(self, wide_file, capsys):
        assert main(["correlate", wide_file, "--columns", "P,C,i"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "correlation\tP\tC\ti"
        assert lines[1].split("\t")[1] == "1.00"

    def test_proportional_columns_correlate_at_most_one(self, tmp_path, capsys):
        # C and E of uniform portfolios are exactly proportional; the rounded
        # sums gave r(C, E) = 1.0000000000000002 before r was clamped.
        rows = "".join(f'A{n},"{";".join(["3"] * n)}"\n' for n in range(2, 8))
        path = tmp_path / "uniform.csv"
        path.write_text("author,citations\n" + rows)
        argv = ["correlate", str(path), "--columns", "P,C,E", "--output-format", "json"]
        assert main(argv) == 0
        matrix = json.loads(capsys.readouterr().out)["matrix"]
        assert {r for row in matrix for r in row} == {1.0}

    @pytest.mark.parametrize(
        "rows, columns, lines",
        [
            # E of the first count is near the largest double: its sums overflowed.
            (
                ["author,citations"] + [
                    f'A{a},"{";".join([str(a * 10**153)] + ["1"] * n)}"'
                    for a, n in ((13, 1), (12, 2), (11, 3))
                ],
                "P,E",
                ["correlation\tP\tE", "P\t1.00\t-1.00", "E\t-1.00\t1.00"],
            ),
            # E near 1e300: its squared deviations overflowed to inf, so r read 0.
            (
                ["author,citations"] + [
                    f'A{a},"{";".join([str(a * 10**150)] + ["0"] * n)}"'
                    for a, n in ((1, 5), (3, 1), (2, 4), (5, 2), (4, 3))
                ],
                "P,C,E",
                [
                    "correlation\tP\tC\tE",
                    "P\t1.00\t-0.70\t-0.61",
                    "C\t-0.70\t1.00\t0.98",
                    "E\t-0.61\t0.98\t1.00",
                ],
            ),
            # One i of the smallest subnormal: its squared deviations underflowed to 0.
            (
                ["author,P,i,eta", "a,10,5e-324,0.5", "b,11,0,0.5", "c,12,0,0.5"],
                "P,i",
                ["correlation\tP\ti", "P\t1.00\t-0.87", "i\t-0.87\t1.00"],
            ),
        ],
        ids=["overflow", "inf-deviations", "underflow"],
    )
    def test_extreme_magnitudes_give_the_true_r(self, tmp_path, capsys, rows, columns, lines):
        path = tmp_path / "extreme.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["correlate", str(path), "--columns", columns]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_zero_variance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text('author,citations\nA,"1"\nB,"1"\nC,"1"\n')
        assert main(["correlate", str(path), "--columns", "P,C"]) == 1
        assert "zero variance" in capsys.readouterr().err


class TestLoneSurrogateLabels:
    """A JSON \\ud800 escape gives a label no writer can encode; it is refused
    with its record before any output is written."""

    DATA = b'[{"author": "A\\ud800", "citations": [3, 1]}, {"author": "B", "citations": [2]}]'
    ERROR = "error: record 1: portfolio label must be UTF-8 text, got 'A\\ud800'\n"

    @pytest.mark.parametrize("command", ["compute", "correlate"])
    @pytest.mark.parametrize("output_format", ["tsv", "csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_a_lone_surrogate_label_exits_one(
        self, command, output_format, to_file, tmp_path, capsys
    ):
        path, out = tmp_path / "in.json", tmp_path / "out.txt"
        path.write_bytes(self.DATA)
        argv = [command, str(path), "--output-format", output_format]
        assert main(argv + (["-o", str(out)] if to_file else [])) == 1
        assert capsys.readouterr() == ("", self.ERROR)
        assert not out.exists()

    def test_stdout_gets_no_traceback(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_bytes(self.DATA)
        proc = _run_python("-m", "scindex", "compute", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", self.ERROR)


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

    def test_json_is_the_table_rows_and_the_matrix(self, capsys):
        assert main(["table1", "--output-format", "json"]) == 0
        payload = {
            "table": table_rows(reconstructed_table()),
            "correlation": {
                "columns": list(AUTHOR_COLUMNS),
                "matrix": pearson_matrix(published_table(), AUTHOR_COLUMNS),
            },
        }
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_csv_output(self, capsys):
        assert main(["table1", "--output-format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "author,P,i,eta,h,z,i_E,C"


@pytest.fixture()
def collector_state():
    """Restore the session's collector setting after a test changes it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _raise_runtime_error(args):
    raise RuntimeError("escaped")


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, status",
        [
            (["dims", "C/P"], 0),
            (["dims", "C +"], 1),
            (["probe", "--index", "g", "--base", "4;2;1"], 2),
            (["compute"], 1),  # an argparse usage error
            (["--help"], 0),
        ],
        ids=["exit-0", "exit-1", "exit-2", "usage-error", "help"],
    )
    def test_main_restores_the_callers_setting(
        self, enabled, argv, status, collector_state, capsys
    ):
        gc.enable() if enabled else gc.disable()
        assert main(argv) == status
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_an_escaping_exception_restores_the_setting(
        self, enabled, collector_state, monkeypatch
    ):
        monkeypatch.setattr(cli, "_cmd_dims", _raise_runtime_error)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError, match="escaped"):
            main(["dims", "C/P"])
        assert gc.isenabled() is enabled

    def test_the_collector_is_paused_while_a_command_runs(
        self, collector_state, monkeypatch, capsys
    ):
        seen = []
        monkeypatch.setattr(cli, "_cmd_dims", lambda args: seen.append(gc.isenabled()) or 0)
        gc.enable()
        assert main(["dims", "C/P"]) == 0
        assert seen == [False]
        assert gc.isenabled()


def _wide_csv(n):
    rows = "".join(f'A{k},"{k % 7 + 2};{k % 3 + 1};1"\n' for k in range(n))
    return "author,citations\n" + rows


def _summary_csv(n):
    rows = "".join(f"A{k},{k + 10},{k % 5 + 1.5},0.{k % 9 + 1},{k % 4 + 1}\n" for k in range(n))
    return "author,P,i,eta,h\n" + rows


def _wide_json(n):
    records = [
        {"author": f"A{k}", "citations": [k % 7 + 2, *[k % 3 + 1] * (k % 4 + 1), 1]}
        for k in range(n)
    ]
    return json.dumps(records)


def _argv(command, tmp_path, n):
    """One command over an input whose size grows with ``n``."""
    if command == "probe-svg":
        base = ";".join(str(k + 1) for k in range(n))  # n runs
        return ["probe", "--base", base, "--index", "C,h,i_E", "--svg", str(tmp_path / "p.svg")]
    name, text, argv = {
        "compute-wide": ("wide.csv", _wide_csv(n), ["compute"]),
        "compute-summary": ("summary.csv", _summary_csv(n), ["compute"]),
        "correlate-json": ("wide.json", _wide_json(n), ["correlate"]),
    }[command]
    path = tmp_path / name
    path.write_text(text)
    return [*argv, str(path), "-o", str(tmp_path / "out.txt")]


def _cycles_left_by(argv):
    """Objects in reference cycles that one ``main(argv)`` leaves behind."""
    gc.collect()
    gc.disable()
    assert main(argv) in (0, 2)
    return gc.collect()


class TestCallsPerRun:
    """The benchmark's trace (``bench/spans.py``) counts these calls: one
    ``reconstruct_from_summary`` per summary row, and each indicator kernel
    once per scale factor of a probe."""

    def test_a_summary_table_reconstructs_each_row_once(self, tmp_path, monkeypatch):
        calls = []
        reconstruct = analytics.reconstruct_from_summary
        monkeypatch.setattr(
            analytics, "reconstruct_from_summary", lambda *a: calls.append(a) or reconstruct(*a)
        )
        path = tmp_path / "summary.csv"
        path.write_text(_summary_csv(6000))
        assert main(["compute", str(path), "-o", str(tmp_path / "out.tsv")]) == 0
        assert len(calls) == 6000

    def test_a_probe_runs_each_kernel_once_per_scale_factor(self, monkeypatch, capsys):
        calls = []
        for desc in indicators.REGISTRY:
            def counted(v, name=desc.name, kernel=desc.compute):
                calls.append(name)
                return kernel(v)

            monkeypatch.setattr(desc, "compute", counted)
        lambdas = ",".join(map(str, range(1, 13)))
        assert main(["probe", "--base", "10;5;3;2;1", "--lambdas", lambdas]) == 0
        assert sorted(calls) == sorted(indicators.VECTOR_LAYOUT * 12)

    def test_a_probe_with_an_svg_fits_each_series_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        for module in (scaling, svgplot):
            def counted(xs, ys, fit=module.fit_loglog):
                calls.append(len(xs))
                return fit(xs, ys)

            monkeypatch.setattr(module, "fit_loglog", counted)
        lambdas = ",".join(map(str, range(1, 13)))
        argv = ["probe", "--base", "10;5;3;2;1", "--lambdas", lambdas, "--index", "all",
                "--svg", str(tmp_path / "p.svg")]
        assert main(argv) == 0
        assert calls == [12] * 11
        assert (tmp_path / "p.csv").read_text().count("\n") == 1 + 11 * 12


class TestCsvReaderCalls:
    """A CSV text with no quote and no carriage return is split into its
    columns with no ``csv.reader``; any other text is read by one."""

    @pytest.mark.parametrize(
        "text, reads",
        [
            (_summary_csv(50), 0),
            (_wide_csv(50).replace('"', ""), 0),
            (_wide_csv(50), 1),
            (_summary_csv(50).replace("\n", "\r\n"), 1),
        ],
        ids=["quote-free-summary", "quote-free-wide", "quoted-label", "carriage-return"],
    )
    def test_only_a_quote_or_a_carriage_return_takes_the_reader(
        self, tmp_path, monkeypatch, text, reads
    ):
        calls = []
        reader = tabular.csv.reader
        monkeypatch.setattr(tabular.csv, "reader", lambda *a: calls.append(a) or reader(*a))
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode())
        assert main(["compute", str(path), "-o", str(tmp_path / "out.tsv")]) == 0
        assert len(calls) == reads


class TestMemoryPerInputByte:
    """The traced peak of ``compute``, from parse to table to emit, per byte
    of a mid-size summary input: ``tabular.MAX_INPUT_BYTES`` is chosen from
    this ratio, so a rise in it shows here first."""

    # Measured on these 20,000 rows (438 kB) with CPython 3.11: 48.2 bytes per
    # input byte to TSV, 32.5 to CSV and 105.6 to JSON, whose table is some
    # 40 times its input (82 to TSV at 5,000 rows, where fixed costs weigh
    # more).  Each bound leaves a third more for other interpreter versions.
    BOUNDS = {"tsv": 64, "csv": 43, "json": 141}

    @staticmethod
    def _peak_per_byte(tmp_path, output_format):
        path, out = tmp_path / "summary.csv", str(tmp_path / f"out.{output_format}")
        argv = ["compute", str(path), "-o", out, "--output-format", output_format]
        path.write_text(_summary_csv(10))
        assert main(argv) == 0  # lazy imports load
        text = _summary_csv(20000)
        path.write_text(text)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / len(text.encode())

    def test_a_summary_table_peaks_under_the_bound(self, tmp_path):
        assert self._peak_per_byte(tmp_path, "tsv") < self.BOUNDS["tsv"]

    def test_a_wide_json_correlation_peaks_under_the_bound(self, tmp_path):
        """Eight wide JSON arrays of 15,000 to 25,000 counts (521 kB), read at
        once: 16.1 traced bytes per input byte with CPython 3.11, most of it
        the decoded array.  The bound, a third above, fails if a copy of the
        counts or of the text creeps in."""
        rng = random.Random(1)
        records = [
            {"author": f"giant{k}", "citations": [
                int(rng.lognormvariate(1.5, 1.2)) for _ in range(15000 + k * 10000 // 7)
            ]}
            for k in range(8)
        ]
        path, out = tmp_path / "giants.json", str(tmp_path / "out.tsv")
        path.write_text(json.dumps(records[:3]))
        assert main(["correlate", str(path), "-o", out]) == 0  # lazy imports load
        text = json.dumps(records)
        path.write_text(text)
        tracemalloc.start()
        try:
            assert main(["correlate", str(path), "-o", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(text.encode()) < 21.5

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_each_output_format_peaks_under_its_bound(self, tmp_path, output_format):
        assert self._peak_per_byte(tmp_path, output_format) < self.BOUNDS[output_format]


class TestNoCyclesPerRecord:
    # Pausing the collector is safe only if a command's garbage in cycles
    # does not grow with its input: reference counting frees the rest.
    @pytest.mark.parametrize(
        "command", ["compute-wide", "compute-summary", "correlate-json", "probe-svg"]
    )
    def test_cyclic_garbage_does_not_grow_with_the_input(
        self, command, tmp_path, collector_state, capsys
    ):
        _cycles_left_by(_argv(command, tmp_path, 10))  # lazy imports and caches fill
        small = _cycles_left_by(_argv(command, tmp_path, 20))
        large = _cycles_left_by(_argv(command, tmp_path, 80))
        assert small == large


class TestParser:
    """The option strings of each subcommand and the namespace of a
    representative command line, as the parser gave them when ``compute``
    and ``correlate`` declared their shared arguments in two copied blocks."""

    OPTIONS = {
        "compute": ["-h --help", "input", "--format", "--columns", "--output-format",
                    "--precision", "-o --output"],
        "correlate": ["-h --help", "input", "--format", "--columns", "--output-format",
                      "--precision", "-o --output"],
        "probe": ["-h --help", "--base", "--lambdas", "--index", "--tolerance", "--svg",
                  "-o --output"],
        "dims": ["-h --help", "expression"],
        "table1": ["-h --help", "--output-format", "--precision", "-o --output"],
    }

    def test_every_subcommand_keeps_its_options(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(self.OPTIONS)
        for name, command in sub.choices.items():
            options = [" ".join(a.option_strings) or a.dest for a in command._actions]
            assert options == self.OPTIONS[name], name

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["compute", "in.csv", "--format", "json", "--columns", "P,h",
                 "--output-format", "csv", "--precision", "full", "-o", "out.csv"],
                {"command": "compute", "input": "in.csv", "format": "json", "columns": "P,h",
                 "output_format": "csv", "precision": "full", "output": "out.csv"},
            ),
            (
                ["correlate", "-", "--columns", "P,C"],
                {"command": "correlate", "input": "-", "format": None, "columns": "P,C",
                 "output_format": "tsv", "precision": None, "output": None},
            ),
            (
                ["probe", "--base", "4;2;1", "--index", "C", "--svg", "p.svg"],
                {"command": "probe", "base": "4;2;1", "lambdas": "1,2,3,4,5", "index": "C",
                 "tolerance": None, "svg": "p.svg", "output": None},
            ),
            (["dims", "C/P"], {"command": "dims", "expression": "C/P"}),
            (
                ["table1", "--output-format", "json"],
                {"command": "table1", "output_format": "json", "precision": None, "output": None},
            ),
        ],
        ids=["compute", "correlate", "probe", "dims", "table1"],
    )
    def test_a_command_line_parses_as_before(self, argv, expected):
        assert vars(cli.build_parser().parse_args(argv)) == expected


_REUSED_ARGVS = {
    "usage-error": ["bogus"],
    "help": ["--help"],
    "probe-help": ["probe", "--help"],
    "compute": ["compute", "WIDE"],
    "correlate": ["correlate", "WIDE", "--columns", "P,C,i"],
    "probe": ["probe", "--base", "4;2;1"],
    "dims": ["dims", "C/P"],
    "table1": ["table1"],
}


def _fix_environment(patch):
    """Help text as wide as in a child whose output is a pipe, and the
    default precision, here and in child interpreters."""
    patch.setenv("COLUMNS", "80")
    patch.delenv("SCINDEX_PRECISION", raising=False)


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    """(argvs, results): each of ``_REUSED_ARGVS`` with its input file, and
    the (stdout, stderr, exit code) of ``python -m scindex`` on it."""
    path = tmp_path_factory.mktemp("reuse") / "wide.csv"
    path.write_text(WIDE_CSV)
    argvs = {
        key: [str(path) if arg == "WIDE" else arg for arg in argv]
        for key, argv in _REUSED_ARGVS.items()
    }
    results = {}
    with pytest.MonkeyPatch.context() as patch:
        _fix_environment(patch)
        for key, argv in argvs.items():
            proc = _run_python("-m", "scindex", *argv)
            results[key] = (proc.stdout, proc.stderr, proc.returncode)
    return argvs, results


def _in_process(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err, code


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it: no call
    reads differently for the calls made before it."""

    def test_the_parser_is_built_on_the_first_call_not_at_import(self):
        code = (
            "import scindex.cli as cli\n"
            "before = cli._parser.cache_info().currsize\n"
            "cli.main(['dims', 'C/P'])\n"
            "cli.main(['dims', 'C/P'])\n"
            "print(before, cli._parser.cache_info().currsize)\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 1"

    @pytest.mark.parametrize("calls_before", [0, 1], ids=["unbuilt", "built"])
    def test_a_rebound_handler_is_the_one_run(self, calls_before):
        code = (
            "import scindex.cli as cli\n"
            f"for _ in range({calls_before}): cli.main(['dims', 'C/P'])\n"
            "cli._cmd_dims = lambda args: print('rebound', args.expression) or 0\n"
            "print(cli.main(['dims', 'C/P']))\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[P]\n" * calls_before + "rebound C/P\n0\n"

    def test_a_built_parser_builds_no_other(self, monkeypatch, capsys):
        main(["dims", "C/P"])
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__",
            lambda self, *a, **k: built.append(a) or init(self, *a, **k),
        )
        for argv in (["dims", "C/P"], ["probe", "--base", "4;2;1", "--index", "C"], ["bogus"]):
            main(argv)
        assert built == []
        assert cli.build_parser() is not cli.build_parser()
        assert len(built) == 2 * 6  # the parser and its five subcommands, each time

    @pytest.mark.parametrize("first", _REUSED_ARGVS, ids=_REUSED_ARGVS)
    def test_the_calls_after_any_call_read_as_a_fresh_process(
        self, first, fresh_runs, monkeypatch, capsys
    ):
        _fix_environment(monkeypatch)
        argvs, results = fresh_runs
        assert _in_process(argvs[first], capsys) == results[first]
        for key, argv in argvs.items():
            assert _in_process(argv, capsys) == results[key], (first, key)
            assert _in_process(argv, capsys) == results[key], (first, key)

    def test_an_option_given_once_does_not_stay(self, wide_file, capsys):
        probe = ["probe", "--base", "4;2;1", "--index", "g"]
        assert main([*probe, "--tolerance", "0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[4] == "pass"
        assert main(probe) == 2
        assert capsys.readouterr().out.splitlines()[1].split("\t")[4] == "fail"
        assert main(["compute", wide_file, "--columns", "P"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "author\tP"
        assert main(["compute", wide_file]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split("\t") == ["author", *indicators.VECTOR_LAYOUT]

    def test_the_handler_patching_tests_pass_with_the_parser_built(
        self, collector_state, monkeypatch, capsys
    ):
        main(["table1"])
        main(["dims", "C/P"])
        capsys.readouterr()
        TestOSErrors().test_a_second_file_name_is_echoed_cut(monkeypatch, capsys)
        TestOSErrors().test_an_error_without_a_file_name_reads_as_str(monkeypatch, capsys)
        for enabled in (True, False):
            TestCollector().test_an_escaping_exception_restores_the_setting(
                enabled, collector_state, monkeypatch
            )
        TestCollector().test_the_collector_is_paused_while_a_command_runs(
            collector_state, monkeypatch, capsys
        )


def _run_python(*args):
    """A child interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = _run_python("-m", "scindex", "dims", "C/P")
        assert proc.returncode == 0
        assert proc.stdout == "[P]\n"

    def test_cli_module_invocation(self):
        proc = _run_python("-m", "scindex.cli", "dims", "C/P")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[P]\n"

    def test_console_scripts_resolve_to_callables(self):
        import importlib

        tomllib = pytest.importorskip("tomllib")
        pyproject = SRC.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"scindex": "scindex.cli:main"}
        for target in scripts.values():
            module, _, attr = target.partition(":")
            assert callable(getattr(importlib.import_module(module), attr)), target

    def test_runtime_does_not_import_numpy(self):
        code = (
            "import sys, scindex.cli\n"
            "scindex.cli.main(['dims', 'C/P'])\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[P]\nFalse\n"

    def test_module_invocation_failure(self):
        proc = _run_python("-m", "scindex", "dims", "i_E + h")
        assert proc.returncode == 1
        assert "cannot add" in proc.stderr

    def test_compute_loads_only_what_it_needs(self, wide_file):
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import scindex.cli\n"
            f"status = scindex.cli.main(['compute', {wide_file!r}])\n"
            "unwanted = ('dataclasses', 'inspect', 'json', 'statistics',\n"
            "            'scindex.expressions', 'scindex.datasets')\n"
            "print(status, [name for name in unwanted if name in set(sys.modules) - before])\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize(
        "argv, first_line",
        [(["dims", "C/P"], "[P]"), (["table1"], "author\tP\ti\teta\th\tz\ti_E\tC")],
    )
    def test_subcommands_load_their_modules(self, argv, first_line):
        code = f"import scindex.cli\nraise SystemExit(scindex.cli.main({argv!r}))\n"
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == first_line


class TestPackageNames:
    def test_every_exported_name_resolves(self):
        import scindex

        for name in scindex.__all__:
            assert getattr(scindex, name) is not None, name
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            scindex.missing  # noqa: B018

    def test_only_the_package_root_lists_exports(self):
        import importlib
        import pkgutil

        import scindex

        names = [m.name for m in pkgutil.iter_modules(scindex.__path__) if m.name != "__main__"]
        assert "dimension" in names and "cli" in names
        for name in names:
            module = importlib.import_module(f"scindex.{name}")
            assert "__all__" not in vars(module), name

    def test_star_import_binds_every_name(self):
        import scindex
        from scindex import expressions

        namespace: dict = {}
        exec("from scindex import *", namespace)
        assert set(scindex.__all__) <= set(namespace)
        assert namespace["parse_dim_expr"] is expressions.parse_dim_expr
        assert namespace["Symbol"] is expressions.Symbol

    def test_import_leaves_expressions_unloaded_until_used(self):
        code = (
            "import sys, scindex\n"
            "print('scindex.expressions' in sys.modules)\n"
            "print(scindex.dimension_of('C/P', scindex.registry_symbols()))\n"
            "print('scindex.expressions' in sys.modules)\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n[P]\nTrue\n"

    def test_a_bare_import_loads_no_submodule(self):
        code = (
            "import sys, scindex\n"
            "print(hasattr(scindex, 'missing'), hasattr(scindex, '__main__'))\n"
            "print([m for m in sys.modules if m.startswith('scindex.')])\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n[]\n"

    def test_a_name_is_kept_after_its_first_use(self):
        import scindex

        value = scindex.compute_all
        assert vars(scindex)["compute_all"] is value

    def test_import_time_lists_every_loaded_submodule(self):
        code = (
            "import sys, scindex.cli\n"
            "print(*(m for m in sys.modules if m.startswith('scindex')))\n"
        )
        proc = _run_python("-X", "importtime", "-c", code)
        assert proc.returncode == 0, proc.stderr
        timed = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        loaded = set(proc.stdout.split())
        assert "scindex.tabular" in loaded
        assert loaded <= timed, loaded - timed

    def test_a_submodule_loads_as_an_attribute(self):
        code = "import scindex\nprint(scindex.tabular.MAX_INPUT_BYTES == 8 * 2**20)\n"
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"

    def test_dir_lists_every_exported_name(self):
        import scindex

        assert set(scindex.__all__) <= set(dir(scindex))
