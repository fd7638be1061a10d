"""Exact enumeration of weighted lattice paths with horizontal steps.

Everything is computed in Z[w] (w = the horizontal-step weight) with
arbitrary-precision integers: Motzkin and Schroeder counting triangles and
their inverses, Hankel determinants in closed form and by fraction-free
elimination, rational generating functions for paths confined to a band,
and a brute-force dynamic-programming oracle that every formula is checked
against.  A builder given an integer weight computes over Z instead, with
plain ints as its scalars.

The package is pure Python: the integer coefficient-vector kernels that
OmegaPoly arithmetic rests on live in pathenum.kernels.
"""

from .algebra import (
    InexactDivision,
    NonUnitConstant,
    OmegaPoly,
    RationalGF,
    TPoly,
    TSeries,
    W,
    binom_general,
)
from .checks import CheckResult
from .matrices import TriMatrix
from .oracle import (
    BandViolation,
    CountTable,
    IndexOutOfTriangle,
    PathSpec,
    count_paths,
    oracle_series,
)

__version__ = "0.1.0"

__all__ = [
    "BandViolation",
    "CheckResult",
    "CountTable",
    "IndexOutOfTriangle",
    "InexactDivision",
    "NonUnitConstant",
    "OmegaPoly",
    "PathSpec",
    "RationalGF",
    "TPoly",
    "TriMatrix",
    "TSeries",
    "W",
    "binom_general",
    "count_paths",
    "oracle_series",
]
