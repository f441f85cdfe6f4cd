"""Dimensioned citation indices.

A bibliometric indicator engine that computes h-type and Euclidean
citation indices as quantities over the publication unit [P], enforces
dimensional homogeneity whenever indices are combined or compared, and
empirically verifies each index's scaling exponent under portfolio
replication.
"""

from .dimension import (
    DIMENSIONLESS,
    PAPERS,
    PAPERS_CUBED,
    PAPERS_SQUARED,
    Dimension,
    Quantity,
)
from .errors import (
    DegenerateSeriesError,
    DomainError,
    EmptyPortfolioError,
    FormatError,
    HeterogeneityError,
    NegativeCountError,
    ParseError,
    ScindexError,
    UnknownIndicatorError,
    UnknownSymbolError,
    ZeroVarianceError,
)
from .indicators import (
    EUCLIDEAN_DIM,
    REGISTRY,
    CitationVector,
    IndicatorDescriptor,
    IndicatorReport,
    compute_all,
    descriptor,
    g_index,
    h_index,
    registry_names,
    registry_symbols,
)
from .scaling import (
    ExponentEstimate,
    ProbeResult,
    fit_loglog,
    probe_registry,
    replicate_scale,
    verify_dimension,
)
from .analytics import (
    AnalyticsTable,
    PortfolioSummary,
    pearson_matrix,
    rank_by,
    reconstruct_from_summary,
)
from .svgplot import PlotSeries, emit_loglog_svg
from .tabular import emit_matrix, emit_records, emit_table, parse_input

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dimension algebra
    "Dimension",
    "Quantity",
    "DIMENSIONLESS",
    "PAPERS",
    "PAPERS_SQUARED",
    "PAPERS_CUBED",
    "EUCLIDEAN_DIM",
    # expressions
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
    # indicators
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
    # scaling probe
    "ExponentEstimate",
    "ProbeResult",
    "replicate_scale",
    "fit_loglog",
    "verify_dimension",
    "probe_registry",
    # analytics
    "PortfolioSummary",
    "AnalyticsTable",
    "reconstruct_from_summary",
    "pearson_matrix",
    "rank_by",
    # io
    "parse_input",
    "emit_records",
    "emit_table",
    "emit_matrix",
    "PlotSeries",
    "emit_loglog_svg",
    # errors
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
]


def __getattr__(name: str) -> object:
    # PEP 562: the expression names of __all__ load on first use; the rest are imported above.
    if name in __all__:
        from . import expressions
        return getattr(expressions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
