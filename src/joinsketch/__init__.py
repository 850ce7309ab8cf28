"""Streaming sketches for multi-join cardinality estimation.

Builds per-relation Count sketches whose tuple encoding is a circular
convolution of single-item sketches (constant-time updates), estimates
acyclic equi-join cardinalities via FFT-based circular cross-correlation,
and ships a dense AMS baseline plus an exact oracle for verification.

The top level exports the names the README's library example uses and
the exception classes; everything else is imported from its module.
"""

from .errors import (
    BudgetError,
    DataError,
    JoinSketchError,
    QueryError,
    UnsupportedQueryError,
)
from .estimator import estimate
from .hashing import derive_hash_set
from .ingest import read_stream
from .joingraph import build_join_graph, parse_query, traversal_plan
from .sketch import SketchConfig, build_sketch

__all__ = [
    "BudgetError",
    "DataError",
    "JoinSketchError",
    "QueryError",
    "SketchConfig",
    "UnsupportedQueryError",
    "build_join_graph",
    "build_sketch",
    "derive_hash_set",
    "estimate",
    "parse_query",
    "read_stream",
    "traversal_plan",
]

__version__ = "0.1.0"
