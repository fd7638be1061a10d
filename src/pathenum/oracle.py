"""Brute-force dynamic-programming path counter; the ground truth.

Counts lattice paths over the step set {up (1,1), down (1,-1), horizontal
(w,0)} where each horizontal step contributes one factor of the weight w.
Three modes:

  * grand     no height restriction
  * quadrant  paths stay weakly above the x-axis
  * banded k  quadrant paths that additionally stay strictly below height k

Each mode is one height window of the table, and a count outside it is zero.
Every cell is computed from the step recursion, independently of all closed
forms, so these counts can adjudicate any formula in the package; the tests
check every cell against a second, independent recursion.  The
weight is symbolic (W) by default and every cell is an OmegaPoly, counted as
a coefficient tuple in w with no OmegaPoly arithmetic.  An integer weight,
passed as omega, is bound before the first cell, so the table is counted
over Z in plain int arithmetic and every cell is an int.  One loop counts
the table a whole column at a time at either weight (_columns); only the
rule that makes a column from the three terms of its cells differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .algebra import OP_ZERO, OmegaPoly, TSeries, W, _raw, _ring

GRAND = "grand"
QUADRANT = "quadrant"
BANDED = "banded"


class BandViolation(ValueError):
    """Height query outside [0, k) for a banded path family."""


class IndexOutOfTriangle(IndexError):
    """Triangle entry requested above the diagonal."""


def _step_length(a) -> None:
    """Check that the horizontal step length a is an int >= 1."""
    if not isinstance(a, int):
        raise ValueError(f"horizontal step length must be an int, got {a!r}")
    if a < 1:
        raise ValueError("horizontal step length must be positive")


@dataclass(frozen=True)
class PathSpec:
    """Path family: horizontal step length w plus a height constraint.

    w and band are ints; any other type raises ValueError here, before a
    table is started.
    """

    w: int
    mode: str
    band: int = 0

    def __post_init__(self):
        _step_length(self.w)
        if not isinstance(self.band, int):
            raise ValueError(f"band height must be an int, got {self.band!r}")
        if self.mode not in (GRAND, QUADRANT, BANDED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == BANDED and self.band < 1:
            raise ValueError("band height must be positive")

    @classmethod
    def grand(cls, w: int = 1) -> "PathSpec":
        return cls(w, GRAND)

    @classmethod
    def quadrant(cls, w: int = 1) -> "PathSpec":
        return cls(w, QUADRANT)

    @classmethod
    def banded(cls, k: int, w: int = 1) -> "PathSpec":
        return cls(w, BANDED, k)


def _plus(a: tuple, b: tuple) -> tuple:
    """Entrywise sum of coefficient tuples; with no negative entry, normal forms stay normal."""
    if len(a) < len(b):
        a, b = b, a
    return (*map(add, a, b), *a[len(b):])


def _column_in_w(up: list, down: list, horiz: list) -> list:
    """A column at W from its up, down and horizontal terms: coefficient tuples, horiz times w."""
    return list(map(_plus, map(_plus, up, down), [(0,) + c if c else c for c in horiz]))


def _columns(height: int, origin: int, n_max: int, w: int, zero, one, column) -> list:
    """Columns 0..n_max of a table, from one at cell origin of column 0.

    Column x is column(up, down, horiz): column x - 1 moved up a cell and
    down a cell, and column x - w (a zero column while x < w).
    """
    zeros = [zero] * height
    cols = [list(zeros)]
    cols[0][origin] = one
    for x in range(1, n_max + 1):
        prev = cols[x - 1]
        cols.append(column([zero, *prev[:-1]], [*prev[1:], zero], cols[x - w] if x >= w else zeros))
    return cols


class CountTable:
    """DP table of weighted path counts, indexed by (x-coordinate, height).

    The mode sets one height window lo <= y <= hi; a count outside it is zero.
    """

    def __init__(self, spec: PathSpec, n_max: int, omega=W):
        if n_max < 0:
            raise ValueError("table size must be >= 0")
        self.spec = spec
        self.n_max = n_max
        zero, one = _ring(omega)
        self._zero = zero
        self._lo = -n_max if spec.mode == GRAND else 0
        self._hi = spec.band - 1 if spec.mode == BANDED else n_max
        height = self._hi - self._lo + 1
        if zero is OP_ZERO:
            cols = _columns(height, -self._lo, n_max, spec.w, (), (1,), _column_in_w)
            self._cols = [[_raw(c) if c else OP_ZERO for c in col] for col in cols]
            return

        def column(up, down, horiz):
            return [u + d + omega * h for u, d, h in zip(up, down, horiz)]

        self._cols = _columns(height, -self._lo, n_max, spec.w, zero, one, column)

    def value(self, n: int, j: int):
        """Weighted count of paths from the origin to (n, j), a scalar of the weight's kind."""
        if n < 0 or n > self.n_max:
            raise IndexError(f"x-coordinate {n} outside table range 0..{self.n_max}")
        if self.spec.mode == BANDED and not 0 <= j < self.spec.band:
            raise BandViolation(f"height {j} outside [0, {self.spec.band})")
        if not self._lo <= j <= self._hi:
            return self._zero
        return self._cols[n][j - self._lo]


def count_paths(spec: PathSpec, n: int, j: int) -> OmegaPoly:
    """Weighted count of paths from (0,0) to (n, j) under the given mode."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    return CountTable(spec, n).value(n, j)


def oracle_series(spec: PathSpec, j: int, order: int, omega=W) -> TSeries:
    """Series whose t^n coefficient counts the paths ending at (n, j)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    table = CountTable(spec, order, omega)
    return TSeries([table.value(n, j) for n in range(order + 1)], order)


def compressed_series(j: int, order: int, band: int = 0, omega=W) -> TSeries:
    """Compressed w=2 column series: t^n coefficient counts paths to (2n-j, j).

    With band > 0 the paths additionally stay strictly below height band.
    """
    if j < 0:
        raise ValueError("height must be nonnegative")
    spec = PathSpec.banded(band, w=2) if band else PathSpec.quadrant(w=2)
    table = CountTable(spec, 2 * order + j, omega)
    return TSeries(
        [table.value(2 * n - j, j) if 2 * n - j >= 0 else table._zero for n in range(order + 1)],
        order,
    )
