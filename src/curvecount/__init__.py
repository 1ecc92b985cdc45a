"""Exact counts of rational and elliptic curves in projective space.

The counts are computed by degenerating one incidence condition at a
time into a fixed hyperplane, which expresses every count through
smaller ones down to a single seed.  All arithmetic is exact.
"""

from .cache import CacheConflict, InvalidCacheFile, MemoStore
from .engine import Engine, InexactCount, trace
from .problems import (
    InvalidProblem,
    Problem,
    UnsupportedProblem,
    ZProblem,
    dim_w,
    dim_x,
    dim_z,
    dimension,
    format_divisor,
    format_problem,
    parse_divisor,
    parse_problem,
    unmarked_factor,
    validate,
    validate_z,
)
from .tables import table_rows
from .trace import TraceNode, check_invariant, render_dot, render_json, render_text

__version__ = "0.1.0"

__all__ = [
    "CacheConflict",
    "Engine",
    "InexactCount",
    "InvalidCacheFile",
    "InvalidProblem",
    "MemoStore",
    "Problem",
    "TraceNode",
    "UnsupportedProblem",
    "ZProblem",
    "check_invariant",
    "dim_w",
    "dim_x",
    "dim_z",
    "dimension",
    "format_divisor",
    "format_problem",
    "parse_divisor",
    "parse_problem",
    "render_dot",
    "render_json",
    "render_text",
    "table_rows",
    "trace",
    "unmarked_factor",
    "validate",
    "validate_z",
]
