"""Weighted Motzkin numbers: series, Riordan triangles, inverses, bands.

The Motzkin series mu satisfies mu = 1 + w*t*mu + t^2*mu^2.  At an
integer weight its coefficients come from the linear recurrence that the
square root of the discriminant (1 - w*t)^2 - 4*t^2 satisfies, one exact
integer division per term, never a numeric root.  Series, row
polynomials, columns and bands are the (1, 2) case of the step-family
engine in the schroder module, and so is the grand (unrestricted-height)
series 1/(1 - w*t - 2*t^2*mu) = D^(-1/2), D the discriminant, built by
the same loop as mu (schroder._disc_walk); the grand column j is
(D^(-1/2) (P_j - t^2 P_(j-2)) - P_(j-1)) / (2 t^j).

At the symbolic weight no series is computed over Z[w].  With A = 1 - w*t
and y = t^2/A^2, mu = A^(-1) C(y) (C the Catalan series) and the grand
series is A^(-1) (1 - 4y)^(-1/2), so the counts ending at height j, with
or without the floor, have the form t^e A^(-c) G(y) with e = j and
c = j + 1 (e = 0 for the Motzkin column, indexed from its first count).
schroder._lift_rows rebuilds them from their integer run at w = 0, a row
(the coefficients in w of one power of t) at a time, one small product
and one divmod per coefficient; the series is built from its rows on
first read, and the CLI writes each row as it is made.  The inverse
triangle is made row by row in the same way (schroder._band_rows).

The inverse of the Motzkin triangle has one production construction (the
band polynomials: row i holds the coefficients of P_i) and two
cross-checks: a Gegenbauer-type double-binomial sum and plain triangular
inversion.  The tests add a third, a three-term recurrence with exact
integer divisions.  The row polynomials of the inverse supply numerator
and denominator of the generating function of path counts confined to
0 <= y < k.
"""

from __future__ import annotations

from .algebra import (
    RationalGF,
    TPoly,
    TSeries,
    W,
    _at_weight,
    _sum_products,
    _symbolic,
    binom,
)
from .checks import CheckResult, first_mismatch
from .matrices import TriMatrix
from .oracle import CountTable, IndexOutOfTriangle, PathSpec
from .schroder import (
    _band_polys,
    _band_triangle,
    _banded,
    _banded_series,
    _column,
    _count_triangle,
    _grand,
    _lift,
    _series,
)


def motzkin_series(order: int, omega=W) -> TSeries:
    """Weighted Motzkin numbers M_n as a series, by the discriminant recurrence."""
    return _series(1, 2, order, omega)


def grand_motzkin_series(order: int, omega=W) -> TSeries:
    """Weighted grand Motzkin numbers G_n as a series, D^(-1/2)."""
    return _grand(1, 2, 0, order, omega)


def motzkin_matrix(n: int, omega=W) -> TriMatrix:
    """n x n triangle of quadrant path counts; entry (i, j) counts paths to (i, j)."""
    return _count_triangle(PathSpec.quadrant(), n, omega)


def grand_matrix(n: int, omega=W) -> TriMatrix:
    """n x n triangle of grand path counts for heights j >= 0."""
    return _count_triangle(PathSpec.grand(), n, omega)


def motzkin_column_gf(j: int, order: int, omega=W) -> TSeries:
    """Column j of the Motzkin triangle, mu^(j+1); t^n holds the count to (n+j, j).

    The engine's column of order order+j counts paths to (n, j); its j lowest
    coefficients vanish, and dropping them re-indexes it by j.  At W it is
    lifted once at its own index (_lift, e = 0, c = j + 1) from its run at 0.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if _symbolic(omega):
        return _lift(1, 2, 0, j + 1, _column(1, 2, j, order + j, 0).shift_down(j), order)
    return _column(1, 2, j, order + j, omega).shift_down(j)


def grand_column_gf(j: int, order: int, omega=W) -> TSeries:
    """Column j of the grand triangle: g * (t*mu)^j; t^n holds the count to (n, j).

    g = 1/(1 - omega*t - 2*t^2*mu) = D^(-1/2); the (1, 2) case of schroder._grand.
    """
    return _grand(1, 2, j, order, omega)


def inverse_motzkin_entry(i: int, j: int, omega=W):
    """Entry (i, j) of the inverse triangle by the double-binomial sum, at omega."""
    if j < 0 or j > i:
        raise IndexOutOfTriangle(f"column {j} outside triangle row {i}")
    d = i - j
    coeffs = [0] * (d + 1)
    for l in range(d // 2 + 1):
        coeffs[d - 2 * l] = (-1) ** (d - l) * binom(i - l, d - l) * binom(d - l, l)
    return _at_weight(coeffs, omega)


def inverse_motzkin_matrix(n: int, omega=W) -> TriMatrix:
    """Inverse of the n x n Motzkin triangle, read off the band polynomials.

    Row i holds the coefficients of P_i of the (1, 2) family: entry (i, j) is
    the coefficient of t^(i-j).  Inverting motzkin_matrix by forward
    substitution and the closed-form entries inverse_motzkin_entry are the
    cross-checks.
    """
    return _band_triangle(1, 2, n, omega)


def inverse_motzkin_poly(k: int) -> TPoly:
    """Row polynomial of the inverse triangle: sum_j m[k,j] t^(k-j).

    Equals sum_l C(k-l, l) (-1)^l t^(2l) (1 - w t)^(k-2l); constant term 1.
    """
    return _band_polys(1, 2, k)[k]


def banded_motzkin_gf(k: int, omega=W) -> RationalGF:
    """Counts of Motzkin paths staying strictly below height k, as num/den.

    Numerator and denominator are the inverse-triangle row polynomials of
    index k-1 and k.  banded_motzkin_series expands it.
    """
    return _banded(1, 2, k, omega)


def banded_motzkin_series(k: int, order: int, omega=W) -> TSeries:
    """The expansion of banded_motzkin_gf(k, omega) to order; at W by the lift, not the quotient."""
    return _banded_series(1, 2, k, order, omega)


def _dot(row, values, offset: int):
    """sum_k row[k] * values[offset + k], symbolically, as one fused sum."""
    return _sum_products((x, values[offset + k]) for k, x in enumerate(row))


def verify_lemma(bound: int) -> CheckResult:
    """Both triangle-to-sequence expansions at every pair i, j <= bound.

    Checks (symbolically in w), i outer and j inner:
      quadrant count to (i, j) = sum_{k<=j} m[j,k] M_{i+k}
      m[i,j] = sum_{k<=i-j} m[i+1, j+1+k] M_k          (j <= i)
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    mu = motzkin_series(2 * bound + 1).coeffs
    table = CountTable(PathSpec.quadrant(), bound)
    inv = [[inverse_motzkin_entry(r, c) for c in range(r + 1)] for r in range(bound + 2)]

    def comparisons():
        for i in range(bound + 1):
            for j in range(bound + 1):
                yield f"count expansion at (i={i}, j={j})", table.value(i, j), _dot(inv[j], mu, i)
                if j <= i:
                    rhs = _dot(inv[i + 1][j + 1:], mu, 0)
                    yield f"inverse expansion at (i={i}, j={j})", inv[i][j], rhs

    return first_mismatch(comparisons())


def verify_orthogonality(max_j: int) -> CheckResult:
    """sum_{k<=j} m[j,k] M_{i+k} = delta(i,j) for 0 <= i <= j <= max_j."""
    mu = motzkin_series(2 * max_j + 1).coeffs
    inv = [[inverse_motzkin_entry(j, k) for k in range(j + 1)] for j in range(max_j + 1)]
    return first_mismatch(
        (f"(i={i}, j={j})", _dot(inv[j], mu, i), int(i == j))
        for j in range(max_j + 1)
        for i in range(j + 1)
    )


def banded_motzkin_recursion_check(k: int, horizon: int) -> CheckResult:
    """Linear recursion equivalent to the banded generating function.

    With counts M^(k) from the oracle and m the inverse-triangle entries:
      sum_{j=0}^{k} M^(k)[n-j] m[k, k-j] = 0            for k <= n <= horizon
      sum_{j=0}^{n} M^(k)[n-j] m[k, k-j] = m[k-1, k-1-n] for 0 <= n < k
    """
    if k < 1:
        raise ValueError("band height must be >= 1")
    table = CountTable(PathSpec.banded(k), horizon)
    counts = [table.value(n, 0) for n in range(horizon + 1)]
    row = [inverse_motzkin_entry(k, j) for j in range(k + 1)]
    return first_mismatch(
        (f"initial value n={n} (k={k})", _dot(row[k - n:], counts, 0),
         inverse_motzkin_entry(k - 1, k - 1 - n))
        if n < k else
        (f"recursion at n={n} (k={k})", _dot(row, counts, n - k), 0)
        for n in range(horizon + 1)
    )


def first_return_check(horizon: int) -> CheckResult:
    """M_{n+2} - w M_{n+1} = sum_{i<=n} M_i M_{n-i}, symbolically, n <= horizon."""
    mu = motzkin_series(horizon + 2).coeffs
    return first_mismatch(
        (f"n={n}", mu[n + 2] - W * mu[n + 1], _dot(mu[n::-1], mu, 0)) for n in range(horizon + 1)
    )
