"""Command-line interface.

Subcommands:

* ``compute``    indicator table for each input portfolio
* ``correlate``  Pearson matrix over selected indicator columns
* ``probe``      replication-scaling verification of declared exponents
* ``dims``       dimension of an index formula, e.g. ``'(eta*i^2*P)^(1/3)'``
* ``table1``     reproduce the bundled ten-author reference table and its
                 correlation block

Exit codes: 0 success, 1 malformed input or expression, 2 scaling
verification failure.  ``--precision`` (or the ``SCINDEX_PRECISION``
environment variable) controls rendered decimals, as
``tabular.check_precision`` allows; ``full`` emits shortest round-trip
values.  ``main`` pauses the cyclic garbage collector for one command
and restores the caller's setting.  The parser is built once per process,
on the first ``main`` call, and each call dispatches to the module's
current ``_cmd_*`` function.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from pathlib import Path
from typing import Sequence

from . import tabular
from .analytics import AnalyticsTable, pearson_matrix
from .dimension import check_tolerance
from .errors import FormatError, ScindexError, shown
from .indicators import VECTOR_LAYOUT, CitationVector, descriptor, registry_symbols
from .scaling import DEFAULT_LAMBDAS, ProbeResult, probe_registry
from .svgplot import PlotSeries, emit_loglog_svg
from .tabular import emit_matrix, emit_table, number, parse_counts, parse_input


def _parse_precision(text: str) -> int | None:
    if text == "full":
        return None
    try:
        value = number(int, text)
    except ValueError:
        raise FormatError(f"invalid precision {shown(text)} (expected an integer or 'full')")
    return tabular.check_precision(value)


def _resolve_precision(arg: str | None) -> int | None:
    if arg is not None:
        return _parse_precision(arg)
    env = os.environ.get("SCINDEX_PRECISION")
    if env:
        try:
            return _parse_precision(env)
        except ScindexError as exc:
            raise FormatError(f"in SCINDEX_PRECISION: {exc}") from None
    return 2


def _load_records(path: str, format_arg: str | None):
    """The records of ``path`` (``-`` for stdin) in ``format_arg``, else in
    the format its name implies: JSON for ``.json`` in any case, CSV otherwise.

    An input of more than ``tabular.MAX_INPUT_BYTES`` is refused: a file by
    its size, before it is read, and stdin once one byte past the limit is
    read.  A file whose size is not known (a pipe) is read as stdin is.
    """
    limit = tabular.MAX_INPUT_BYTES
    if path == "-":
        data = sys.stdin.buffer.read(limit + 1)
    else:
        with open(path, "rb") as handle:
            data = handle.read(limit + 1) if os.fstat(handle.fileno()).st_size <= limit else None
    if data is None or len(data) > limit:
        source = "stdin" if path == "-" else shown(path)
        raise FormatError(f"input {source} is larger than the limit of {limit} bytes")
    inferred = "json" if path.lower().endswith(".json") else "csv"
    return parse_input(data, format_arg or inferred)


def _check_output(output: str | Path | None, option: str = "-o") -> None:
    """Refuse an output of ``option`` that is a directory, before any input
    is read; none or ``-`` is stdout."""
    if output not in (None, "-") and Path(output).is_dir():
        raise FormatError(f"{option} {shown(str(Path(output)))} is a directory")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _list_arg(text: str, option: str, item: str = "indicator name") -> list[str]:
    """The comma-separated items of ``option``, which must name at least one."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise FormatError(f"{option} needs at least one {item}")
    return items


def _columns_arg(text: str | None) -> list[str] | None:
    """The indicator names of ``--columns``, each of the registry; whether
    the table holds a named column is checked on the table."""
    if text is None:
        return None
    columns = _list_arg(text, "--columns")
    for name in columns:
        descriptor(name)
    return columns


def _parse_counts_arg(text: str) -> CitationVector:
    try:
        vector = parse_counts(text)
    except FormatError as exc:
        raise FormatError(f"{exc} in --base") from None
    if not vector:
        raise FormatError("--base needs at least one citation count")
    return vector


def _parse_lambdas_arg(text: str) -> list[int]:
    try:
        return [number(int, item) for item in _list_arg(text, "--lambdas", "scale factor")]
    except ValueError:
        raise FormatError(f"invalid --lambdas value {shown(text)}") from None


def _parse_tolerance_arg(text: str) -> float:
    try:
        tolerance = number(float, text)
    except ValueError:
        raise FormatError(f"invalid --tolerance value {shown(text)}") from None
    return check_tolerance(tolerance, "--tolerance")


def _format_probe_lines(results: Sequence[ProbeResult]) -> str:
    lines = ["index\tdeclared\tslope\tmax_residual\tverdict\tnote"]
    for result in results:
        if result.estimate is None:
            slope = residual = "-"
        else:
            slope = f"{result.estimate.slope:.6f}"
            residual = f"{result.estimate.max_residual:.3g}"
        verdict = "pass" if result.passed else "fail"
        lines.append(
            f"{result.indicator}\t{result.declared_exponent}\t{slope}\t"
            f"{residual}\t{verdict}\t{result.note}"
        )
    return "\n".join(lines) + "\n"


def _cmd_compute(args: argparse.Namespace) -> int:
    columns = _columns_arg(args.columns)
    precision = _resolve_precision(args.precision)
    _check_output(args.output)
    table = AnalyticsTable.from_portfolios(_load_records(args.input, args.format), columns=columns)
    _write_output(emit_table(table, args.output_format, precision), args.output)
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    columns = _columns_arg(args.columns)
    precision = _resolve_precision(args.precision)
    _check_output(args.output)
    table = AnalyticsTable.from_portfolios(_load_records(args.input, args.format))
    columns = columns or list(table.columns)
    matrix = pearson_matrix(table, columns)
    _write_output(emit_matrix(columns, matrix, args.output_format, precision), args.output)
    return 0


def _check_probe_outputs(output: str | None, svg: str) -> None:
    """Refuse ``--svg`` and the SVG's points file when one is ``-`` (stdout)
    or a directory, or two of ``-o``, ``--svg`` and the points file name one
    file, so that no output overwrites another and none fails after another
    is written."""
    svg_path = Path(svg)
    if svg == "-" or not svg_path.name:
        raise FormatError(f"--svg {shown(svg)} names no file")
    seen = {} if output in (None, "-") else {Path(output).resolve(): "-o"}
    for option, path in (
        ("--svg", svg_path), ("the points file of --svg", svg_path.with_suffix(".csv"))
    ):
        _check_output(path, option)
        first = seen.setdefault(path.resolve(), option)
        if first != option:
            raise FormatError(f"{first} and {option} name the same file {shown(str(path))}")


def _cmd_probe(args: argparse.Namespace) -> int:
    _check_output(args.output)
    base = _parse_counts_arg(args.base)
    lambdas = _parse_lambdas_arg(args.lambdas)
    names = None if args.index == "all" else _list_arg(args.index, "--index")
    tolerance = None if args.tolerance is None else _parse_tolerance_arg(args.tolerance)
    if args.svg:
        _check_probe_outputs(args.output, args.svg)
    results = probe_registry(base, lambdas, names=names, tolerance=tolerance)
    if args.svg:
        # Plotted before anything is written, so a refusal leaves no file.
        plottable = [
            PlotSeries(r.indicator, list(zip(r.lambdas, r.values)), r.estimate)
            for r in results
            if all(v > 0 for v in r.values)
        ]
        if not plottable:
            raise FormatError(
                "--svg has nothing to plot: no selected indicator is positive "
                "at every scale factor"
            )
        svg, points_csv = emit_loglog_svg(plottable, title="replication scaling")
    _write_output(_format_probe_lines(results), args.output)
    if args.svg:
        Path(args.svg).write_text(svg, encoding="utf-8")
        Path(args.svg).with_suffix(".csv").write_text(points_csv, encoding="utf-8")
    if any(not r.passed for r in results):
        failed = ", ".join(r.indicator for r in results if not r.passed)
        print(f"verification failed for: {failed}", file=sys.stderr)
        return 2
    return 0


def _cmd_dims(args: argparse.Namespace) -> int:
    from .expressions import dimension_of
    try:
        dim = dimension_of(args.expression, registry_symbols())
    except ScindexError as exc:
        raise FormatError(f"in expression {shown(args.expression)}: {exc}") from None
    print(dim)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from . import datasets
    precision = _resolve_precision(args.precision)
    _check_output(args.output)
    reconstructed = datasets.reconstructed_table()
    published = datasets.published_table()
    matrix = pearson_matrix(published, datasets.AUTHOR_COLUMNS)
    if args.output_format == "json":
        import json
        payload = {
            "table": json.loads(emit_table(reconstructed, "json")),
            "correlation": json.loads(emit_matrix(datasets.AUTHOR_COLUMNS, matrix, "json")),
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    text = emit_table(reconstructed, args.output_format, precision)
    text += "\n"
    text += emit_matrix(datasets.AUTHOR_COLUMNS, matrix, args.output_format, precision)
    _write_output(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scindex",
        description="Dimensioned citation indices: compute, correlate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_output(p: argparse.ArgumentParser):
        p.add_argument("--output-format", choices=("tsv", "csv", "json"), default="tsv")
        p.add_argument("--precision", default=None, metavar="N|full")
        p.add_argument("-o", "--output", default=None, metavar="PATH")

    for name, summary in (
        ("compute", "indicator table for each input portfolio"),
        ("correlate", "Pearson matrix over indicator columns"),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument("input", help="CSV/JSON file of portfolios, or - for stdin")
        command.add_argument("--format", choices=("csv", "json"), default=None)
        command.add_argument("--columns", default=None, help="comma-separated indicator names")
        add_common_output(command)

    probe = sub.add_parser("probe", help="verify scaling exponents under replication")
    probe.add_argument("--base", required=True, help="semicolon-delimited counts, e.g. '4;2;1'")
    probe.add_argument(
        "--lambdas",
        default=",".join(str(x) for x in DEFAULT_LAMBDAS),
        help="comma-separated scale factors",
    )
    probe.add_argument(
        "--index",
        default="all",
        help=f"indicator name(s) or 'all' ({', '.join(VECTOR_LAYOUT)})",
    )
    probe.add_argument("--tolerance", default=None, help="slope gate override")
    probe.add_argument("--svg", default=None, metavar="PATH", help="write an SVG plot (+ .csv points)")
    probe.add_argument("-o", "--output", default=None, metavar="PATH")

    dims = sub.add_parser("dims", help="dimension of an index formula")
    dims.add_argument("expression", help="e.g. 'C/P' or '(eta*i^2*P)^(1/3)'")

    table1 = sub.add_parser(
        "table1", help="reproduce the bundled reference author table and correlations"
    )
    add_common_output(table1)

    return parser


# The one parser of the process, built on the first ``main`` call.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    # A command's records, reports and rows hold no reference cycles, so
    # reference counting frees them and a collector pass over them finds
    # nothing; the only cycles are argparse's parser graph, built once per
    # process.  The collector is paused for the command, as ``timeit`` does.
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors; usage errors are input errors here.
            return 0 if exc.code in (0, None) else 1
        # Built per call, so that a handler rebound on the module is the one run.
        handlers = {"compute": _cmd_compute, "correlate": _cmd_correlate,
                    "probe": _cmd_probe, "dims": _cmd_dims, "table1": _cmd_table1}
        try:
            return handlers[args.command](args)
        except (ScindexError, OSError) as exc:
            message = str(exc)
            if isinstance(exc, OSError) and exc.filename is not None:
                # OSError's own layout, with each file name echoed by ``shown``.
                names = (shown(name) for name in (exc.filename, exc.filename2) if name is not None)
                message = f"[Errno {exc.errno}] {exc.strerror}: {' -> '.join(names)}"
            print(f"error: {message}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
