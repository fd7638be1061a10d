"""Exact Hankel determinants of weighted Motzkin numbers.

Determinants are computed by fraction-free (Bareiss) elimination over the
integral domain Z[w], or over Z on plain ints when the matrix is built at an
integer weight; every interior division is exact, and a remainder raises
InexactDivision since it can only mean an implementation bug.  A
naive cofactor expansion is kept as a second, independent determinant
engine for small dimensions.

The determinant of (alpha*M[i+j] + beta*M[i+j+1]) has the closed form
sum_i (-beta)^(n-i) alpha^i m[n,i] over the inverse-triangle entries m;
that polynomial form is used here rather than any radical expression, so
results stay exact in Z[w].
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import OP_ONE, OP_ZERO, OmegaPoly, W, _div_exact, _zero, as_opoly, binom
from .checks import PASS, CheckResult, fail
from .matrices import SquareMatrix
from .motzkin import inverse_motzkin_entry, motzkin_series


def _bareiss(m: SquareMatrix):
    """One fraction-free elimination sweep; returns (pivots, sign, swapped).

    pivots[k] is the leading principal minor of dimension k+1 of the matrix
    with its rows swapped as the sweep went; the list stops short of m.n when
    a column has no nonzero pivot, so the determinant is zero.  sign is the
    parity of the row swaps and swapped tells whether any took place.
    """
    n = m.n
    rows = [list(r) for r in m.rows]
    pivots = []
    sign = 1
    swapped = False
    prev = None  # the previous pivot; the first step divides by nothing
    for k in range(n):
        if k < n - 1 and not rows[k][k]:
            # zero pivot: swap in a nonzero row below, tracking the sign
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    swapped = True
                    break
            else:
                return pivots, sign, swapped
        pivot = rows[k][k]
        pivots.append(pivot)
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                elt = pivot * rows[i][j] - rik * rows[k][j]
                rows[i][j] = _div_exact(elt, prev) if k else elt
        prev = pivot
    return pivots, sign, swapped


def det_fraction_free(m: SquareMatrix):
    """Exact determinant by Bareiss elimination, of the entries' kind; dimension 0 gives 1."""
    if m.n == 0:
        return 1
    pivots, sign, _ = _bareiss(m)
    if len(pivots) < m.n:
        return _zero(m.rows[0][0])
    return pivots[-1] if sign == 1 else -pivots[-1]


def det_cofactor(m: SquareMatrix):
    """Determinant by cofactor expansion; exponential, for cross-checks only."""

    def rec(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = _zero(rows[0][0])
        sign = 1
        for j in range(len(rows)):
            c = rows[0][j]
            if c:
                sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
                term = c * rec(sub)
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        return acc

    if m.n == 0:
        return 1
    return rec([list(r) for r in m.rows])


def leading_minor_dets(m: SquareMatrix) -> list:
    """Determinants of all leading principal minors (dimensions 1..n).

    One Bareiss sweep gives every minor when it swaps no rows; otherwise
    this falls back to independent determinants per dimension.
    """
    pivots, _, swapped = _bareiss(m)
    if not swapped and len(pivots) == m.n:
        return pivots
    return [
        det_fraction_free(SquareMatrix([r[: d + 1] for r in m.rows[: d + 1]]))
        for d in range(m.n)
    ]


@dataclass(frozen=True)
class HankelSpec:
    """Hankel matrix spec: entry (i,j) = alpha*M[i+j+shift] + beta*M[i+j+shift+1].

    alpha and beta are scalars: ints, or OmegaPolys.
    """

    n: int
    shift: int = 0
    alpha: int | OmegaPoly = 1
    beta: int | OmegaPoly = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.shift not in (0, 1, 2):
            raise ValueError("shift must be 0, 1 or 2")
        if not self.alpha and not self.beta:
            raise ValueError("alpha and beta cannot both be zero")


def hankel_matrix(spec: HankelSpec, omega=W) -> SquareMatrix:
    """The Hankel matrix of the Motzkin numbers at the weight omega for a HankelSpec.

    At an integer weight, with int alpha and beta, every entry is an int, so
    Bareiss eliminates an integer matrix.
    """
    n, shift, alpha, beta = spec.n, spec.shift, spec.alpha, spec.beta
    mu = motzkin_series(2 * n - 2 + shift + 1, omega)
    seq = [alpha * mu.coeff(k) + beta * mu.coeff(k + 1) for k in range(2 * n - 1 + shift)]
    return SquareMatrix([[seq[i + j + shift] for j in range(n)] for i in range(n)])


def shifted_hankel_closed(n: int, alpha, beta) -> OmegaPoly:
    """Closed form sum_i (-beta)^(n-i) alpha^i m[n,i] for det(alpha*M + beta*M')."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    alpha, beta = as_opoly(alpha), as_opoly(beta)
    acc = OP_ZERO
    apow = OP_ONE
    bpows = [OP_ONE]
    for _ in range(n):
        bpows.append(bpows[-1] * (-beta))
    for i in range(n + 1):
        acc = acc + bpows[n - i] * apow * inverse_motzkin_entry(n, i)
        apow = apow * alpha
    return acc


def shifted_hankel_binomial(n: int, alpha, beta) -> OmegaPoly:
    """Same determinant as sum_k C(n-k,k)(-1)^k beta^(2k) (alpha+beta*w)^(n-2k)."""
    alpha, beta = as_opoly(alpha), as_opoly(beta)
    core = alpha + beta * W
    acc = OP_ZERO
    for k in range(n // 2 + 1):
        acc = acc + (-1) ** k * binom(n - k, k) * beta ** (2 * k) * core ** (n - 2 * k)
    return acc


def second_hankel_closed(n: int) -> OmegaPoly:
    """det (M[i+j+1]) closed form: sum_k C(n-k,k)(-1)^k w^(n-2k)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * binom(n - k, k)
    return OmegaPoly(coeffs)


def hankel_recursion_check(n: int) -> CheckResult:
    """det(M[i+j+2])_n = det(M[i+j+2])_(n-1) + det(M[i+j+1])_n^2, symbolically.

    Dimension-0 determinants are 1 by convention, which the identity itself
    forces at n = 1.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    shift2 = leading_minor_dets(hankel_matrix(HankelSpec(n, shift=2)))
    shift1 = leading_minor_dets(hankel_matrix(HankelSpec(n, shift=1)))
    for d in range(1, n + 1):
        lhs = shift2[d - 1]
        prev = shift2[d - 2] if d >= 2 else OP_ONE
        rhs = prev + shift1[d - 1] * shift1[d - 1]
        if lhs != rhs:
            return fail(f"dimension {d}", lhs, rhs)
    return PASS
