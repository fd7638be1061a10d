import random

import pytest

from pathenum.algebra import OP_ONE, OP_ZERO, OmegaPoly, RationalGF, TPoly, TSeries, W
from pathenum.matrices import TriMatrix
from pathenum.oracle import BANDED, GRAND, IndexOutOfTriangle, PathSpec
from pathenum.schroder import inverse_schroder_poly


def random_opoly(rng: random.Random, max_deg: int = 4, max_abs: int = 9) -> OmegaPoly:
    deg = rng.randint(0, max_deg)
    return OmegaPoly([rng.randint(-max_abs, max_abs) for _ in range(deg + 1)])


def identity(n: int) -> TriMatrix:
    """The n x n identity, as an int TriMatrix (equal to its OmegaPoly form)."""
    return TriMatrix([[1 if j == i else 0 for j in range(i + 1)] for i in range(n)])


def count_table_rec(spec: PathSpec, n_max: int) -> dict:
    """{(x, y): count} for every cell of the spec's height window, x <= n_max, at W.

    The step recursion count(x, y) = count(x-1, y-1) + count(x-1, y+1) +
    w count(x-w, y) in OmegaPoly arithmetic, cell by cell; a count outside
    the window is zero.
    """
    lo = -n_max if spec.mode == GRAND else 0
    hi = spec.band - 1 if spec.mode == BANDED else n_max
    cells = {(0, y): OP_ONE if y == 0 else OP_ZERO for y in range(lo, hi + 1)}
    for x in range(1, n_max + 1):
        for y in range(lo, hi + 1):
            up, down = cells.get((x - 1, y - 1), OP_ZERO), cells.get((x - 1, y + 1), OP_ZERO)
            cells[x, y] = up + down + W * cells.get((x - spec.w, y), OP_ZERO)
    return cells


def eval_omega(value, x: int):
    """value with the weight w set to the integer x; each OmegaPoly becomes its constant value.

    An int entry stays an int.  The result is a plain TSeries, TPoly or
    TriMatrix, named here rather than type(value): the row-made _RowSeries
    and _RowTriangle take other constructor arguments.  A tuple of rows (a
    square matrix) maps to a tuple of rows.
    """

    def at(e):
        return OmegaPoly((e.evaluate(x),)) if isinstance(e, OmegaPoly) else e

    if isinstance(value, TSeries):
        return TSeries([at(c) for c in value.coeffs], value.order)
    if isinstance(value, TPoly):
        return TPoly([at(c) for c in value.coeffs])
    if isinstance(value, TriMatrix):
        return TriMatrix([[at(e) for e in row] for row in value.rows])
    return tuple(tuple(map(at, row)) for row in value)


def truncate(series: TSeries, order: int) -> TSeries:
    """The series cut to a lower truncation order; ValueError for a higher one."""
    if order > series.order:
        raise ValueError("cannot extend a truncated series")
    return TSeries(series.coeffs[: order + 1], order)


def inverse_motzkin_entry_rec(i: int, j: int) -> OmegaPoly:
    """Entry (i, j) of the inverse Motzkin triangle by the three-term recurrence.

    (i-j)*m[i,j] = -w*i*m[i-1,j] - (i+j)*m[i-2,j], starting from m[i,j] =
    delta(i,j) for j >= i.  Every division by (i-j) must be exact in Z[w];
    a remainder raises InexactDivision (it would mean a bug, not bad input).
    """
    if j < 0 or j > i:
        raise IndexOutOfTriangle(f"column {j} outside triangle row {i}")
    prev2, prev = OP_ZERO, OP_ONE  # m[j-1, j], m[j, j]
    for r in range(j + 1, i + 1):
        rhs = -(r * (W * prev)) - (r + j) * prev2
        prev2, prev = prev, rhs.exact_div_int(r - j)
    return prev


def banded_schroder_gf_via_s(k: int) -> RationalGF:
    """Weight-1 compressed banded counts assembled from the s polynomials.

    Numerator:   (1-t) sum_i t^(2i) (-1)^i s_(k-2-2i) + [k odd] (-1)^((k-1)/2) t^(k-1)
    Denominator: (1-t) sum_i t^(2i) (-1)^i s_(k-1-2i) + [k even] (-1)^(k/2) t^k
    """
    if k < 1:
        raise ValueError("band height must be >= 1")

    def assemble(top: int, tail_deg: int, tail_on: bool, tail_sign: int) -> TPoly:
        acc = TPoly(())
        i = 0
        while top - 2 * i >= 0:
            acc = acc + inverse_schroder_poly(top - 2 * i, 1).shift(2 * i) * ((-1) ** i)
            i += 1
        acc = TPoly([1, -1]) * acc
        if tail_on:
            acc = acc + TPoly([tail_sign]).shift(tail_deg)
        return acc

    num = assemble(k - 2, k - 1, k % 2 == 1, (-1) ** ((k - 1) // 2))
    den = assemble(k - 1, k, k % 2 == 0, (-1) ** (k // 2))
    return RationalGF(num, den)


@pytest.fixture
def rng():
    return random.Random(20110531)
