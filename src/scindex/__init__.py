"""Dimensioned citation indices.

A bibliometric indicator engine that computes h-type and Euclidean
citation indices as quantities over the publication unit [P], enforces
dimensional homogeneity whenever indices are combined or compared, and
empirically verifies each index's scaling exponent under portfolio
replication.

The public names are listed once, under the module that defines them,
and each module is imported on the first use of one of its names
(PEP 562), so ``import scindex`` alone loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dimension": (
        "Dimension",
        "Quantity",
        "DIMENSIONLESS",
        "PAPERS",
        "PAPERS_SQUARED",
        "PAPERS_CUBED",
    ),
    "expressions": (
        "DimExpr",
        "Symbol",
        "Sum",
        "Product",
        "Quotient",
        "Power",
        "parse_dim_expr",
        "format_dim_expr",
        "eval_dim_expr",
        "dimension_of",
    ),
    "indicators": (
        "EUCLIDEAN_DIM",
        "CitationVector",
        "IndicatorDescriptor",
        "IndicatorReport",
        "REGISTRY",
        "registry_names",
        "registry_symbols",
        "descriptor",
        "h_index",
        "g_index",
        "compute_all",
    ),
    "scaling": (
        "ExponentEstimate",
        "ProbeResult",
        "replicate_scale",
        "fit_loglog",
        "verify_dimension",
        "probe_registry",
    ),
    "analytics": (
        "PortfolioSummary",
        "AnalyticsTable",
        "reconstruct_from_summary",
        "pearson_matrix",
        "rank_by",
    ),
    "tabular": (
        "parse_input",
        "emit_records",
        "emit_table",
        "emit_matrix",
    ),
    "svgplot": (
        "PlotSeries",
        "emit_loglog_svg",
    ),
    "errors": (
        "ScindexError",
        "DomainError",
        "HeterogeneityError",
        "ParseError",
        "UnknownSymbolError",
        "EmptyPortfolioError",
        "NegativeCountError",
        "DegenerateSeriesError",
        "ZeroVarianceError",
        "UnknownIndicatorError",
        "FormatError",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "datasets"}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str) -> object:
    # Known names only: pytest and pydoc probe attributes, and an unknown one
    # must not cost a search for a submodule of that name.
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
