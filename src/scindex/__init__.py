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
        "registry_symbols",
        "descriptor",
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
    module = _HOMES.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, takes the import path that
    # -X importtime times; it binds the submodule here, where it is read back.
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
