"""Exact Hankel determinants of weighted Motzkin numbers.

At an integer weight, hankel_det computes det(c[i+j]) of the sequence c
over Z, from the leading coefficients of the subresultant polynomial
remainder sequence of x^(2n) and sum_k c[k] x^(2n-1-k).  Each remainder
keeps only the top coefficients that the later leading coefficients read,
so the sequence costs O(n^2) ring operations, and each step divides its
whole cut row by lc(r_(k-1))^2 in one exact-division pass (_div_row).  A
zero leading minor (a degree gap) falls back to det_fraction_free, one
fraction-free (Bareiss) elimination loop that swaps in a lower row at a
zero pivot; leading_minor_dets applies it to each leading block.

At the symbolic weight W, hankel_det evaluates that integer engine at the
integer weights 0, 1, -1, 2, -2, ... and rebuilds the polynomial in w by
Newton interpolation over Z, because the remainder sequence over Z[w]
carries operands that keep growing.  The number of weights comes from a
bound on the w-degree.  Write c[k] = alpha*M[k+s] + beta*M[k+s+1] as the
k-th moment of q(Y) = (alpha + beta*Y) Y^s, where Y = w + X and X carries
the aerated Catalan moments (choose where the level steps of a path go:
M[m] = sum_h C(m, h) w^h Ctilde[m-h]).  The Pascal matrix
L[i][l] = C(i, l) w^(i-l) is unit lower triangular and
Hankel(c) = L Hankel(d) L^T, with d[k] = sum_l e[l] Ctilde[k+l] and e[l]
the X-coefficients of q(w + X).  Every d[k] has w-degree at most
D = max(deg alpha + s, deg beta + s + 1), so the determinant has w-degree
at most n*D.  This is the invariance of Hankel determinants under the
binomial transform (Layman, J. Integer Seq. 4 (2001), art. 01.1.5;
Aigner, J. Combin. Theory Ser. A 87 (1999)).  n*D + 1 weights determine the
polynomial, and one more is a check: its Newton coefficient must be 0, so
a wrong bound cannot pass unnoticed.

When exactly one of alpha, beta is nonzero and constant in w, half the
weights do.  A Motzkin path of length m has as many level steps as m has
parity, so M[m](-w) = (-1)^m M[m](w), and the determinant is w^e R(w^2)
with e = n*s mod 2 (beta = 0) or n*(s+1) mod 2 (alpha = 0).  R is then
interpolated in u = w^2 from the weights x = e, e+1, ..., each value
divided by x^e, and the check weight is negative: its Newton coefficient
tests the parity as well as the degree bound.

A weight where the remainder sequence meets a gap is skipped for the next
unused one, so the symbolic engine pays no Bareiss elimination there; at
most bound + 2 weights are skipped per determinant, and after that a gap
weight is taken by Bareiss, since a spec such as (alpha, beta) = (-w, 1),
whose c[0] is 0, has a gap at every weight.

The divided differences of an integer polynomial at integer weights (or
at their squares) are integers, so every division is exact, and every
division of either engine raises InexactDivision on a remainder, since
that can only mean an implementation bug.  The tests
check the interpolated determinant against the remainder sequence run over
Z[w], against Bareiss, and against a naive cofactor expansion at small
dimensions.

hankel_closed is a third construction, one closed form for every spec:
Christoffel's formula (Szego, Orthogonal Polynomials, Thm 2.5;
Krattenthaler, Lin. Alg. Appl. 411 (2005)).  The weighted Motzkin numbers
are the moments of the monic orthogonal polynomials p_0 = 1,
p_(m+1) = (x - w) p_m - p_(m-1), and c(m, j) = [x^j] p_m is the entry
(m, j) of the inverse Motzkin triangle (inverse_motzkin_entry), the paper's
link from the inverse matrix to the Hankel determinants.  c[k] is the k-th
moment of q(x) = (alpha + beta*x) x^s, and Christoffel's theorem gives
det(c[i+j]) from p_n, ..., p_(n+s) at the roots of q.  In integral form,
with alpha != 0,

    det = (-1)^(n(s+1)) det(M') / (-alpha)^s,

where row i <= s of M' is c(n+i, 0), ..., c(n+i, s-1) (0 past the diagonal),
followed by h_i = sum_k c(n+i, k) (-alpha)^k beta^(n+s-k).  That is
beta^(s-i) (-1)^(n+i) times the shift-0 closed form
D_m = sum_k (-beta)^(m-k) alpha^k c(m, k) at m = n+i (shifted_hankel_closed).
When alpha = 0, q = beta x^(s+1), so the spec is taken as (s+1, beta, 0).
The division by (-alpha)^s is exact and raises InexactDivision on a
remainder.  Every value is a polynomial in Z[w], built at the weight from
integer coefficients alone, with no radicals.  second_hankel_closed and
shifted_hankel_binomial are further closed forms of shift 1 and shift 0,
kept as references of the tests and the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .algebra import (
    InexactDivision,
    OP_ONE,
    OP_ZERO,
    OmegaPoly,
    W,
    _at_weight,
    _bind,
    _div_exact,
    _div_row,
    _one,
    _ring,
    _scalar_rows,
    _symbolic,
    _zero,
    as_opoly,
    binom,
)
from .checks import CheckResult, first_mismatch
from .motzkin import inverse_motzkin_entry, motzkin_series


def det_fraction_free(rows):
    """Exact determinant of a square matrix's rows by Bareiss elimination; dimension 0 gives 1.

    The rows are taken as one kind of scalar (_scalar_rows: TypeError on a
    non-scalar, OmegaPoly if any entry is one), and so is the determinant;
    rows that do not form a square raise ValueError.  A zero pivot swaps in
    a lower row; with none to swap in, the determinant is zero.
    """
    rows = [list(r) for r in _scalar_rows(rows)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = None  # the previous pivot; the first step divides by nothing
    for k in range(n):
        if not rows[k][k]:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return _zero(rows[k][k])
        pivot = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                elt = pivot * rows[i][j] - rik * rows[k][j]
                rows[i][j] = _div_exact(elt, prev) if k else elt
        prev = pivot
    return pivot if sign == 1 else -pivot


def leading_minor_dets(rows) -> list:
    """Leading principal minors of n rows, d = 1..n: det of the first d entries of the first d rows."""
    return [det_fraction_free([r[: d + 1] for r in rows[: d + 1]]) for d in range(len(rows))]


@dataclass(frozen=True)
class HankelSpec:
    """Hankel matrix spec: entry (i,j) = alpha*M[i+j+shift] + beta*M[i+j+shift+1].

    n and shift are ints; alpha and beta are scalars: ints, or OmegaPolys.
    Any other type raises ValueError here, before a determinant is started.
    """

    n: int
    shift: int = 0
    alpha: int | OmegaPoly = 1
    beta: int | OmegaPoly = 0

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise ValueError(f"dimension must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not isinstance(self.shift, int) or self.shift not in (0, 1, 2):
            raise ValueError("shift must be 0, 1 or 2")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not isinstance(value, (int, OmegaPoly)):
                raise ValueError(f"{name} must be an int or an OmegaPoly, got {value!r}")
        if not self.alpha and not self.beta:
            raise ValueError("alpha and beta cannot both be zero")


def _sequence(spec: HankelSpec, omega) -> list:
    """c[k] = alpha*M[k+shift] + beta*M[k+shift+1] for k < 2n-1, at the weight omega.

    alpha and beta are taken at the weight too, so at an int weight every c[k] is an int.
    """
    n, shift = spec.n, spec.shift
    mu = motzkin_series(2 * n - 1 + shift, omega)
    alpha, beta = _bind(spec.alpha, omega), _bind(spec.beta, omega)
    return [alpha * mu.coeff(k + shift) + beta * mu.coeff(k + shift + 1) for k in range(2 * n - 1)]


def hankel_matrix(spec: HankelSpec, omega=W) -> tuple:
    """The rows, a tuple of tuples, of the Hankel matrix of a HankelSpec at the weight omega.

    At an integer weight, with int alpha and beta, every entry is an int, so
    Bareiss eliminates an integer matrix.
    """
    return _square(_sequence(spec, omega), spec.n)


def _square(c: list, n: int) -> tuple:
    """The rows of the n x n Hankel matrix (c[i+j]) of a sequence c of length at least 2n - 1."""
    return tuple(tuple(c[i:i + n]) for i in range(n))


def hankel_det(spec: HankelSpec, omega=W):
    """det(c[i+j]) for a HankelSpec at the weight omega, of the entries' kind.

    At an int weight this is the remainder sequence (_remainder_det).  At W
    it is the polynomial through the remainder sequence's values at the
    integer weights 0, 1, -1, 2, -2, ..., one more than the degree bound
    (_degree_bound) needs, read off its Newton form.  For a parity spec
    (_parity) the determinant is w^e R(w^2): R is interpolated in u = w^2
    from the values at x = e, e+1, ..., each divided by x^e, and the check
    weight is negative, so that it tests the parity as well as the bound.
    A weight where the remainder sequence meets a gap is skipped for the
    next unused one, at most bound + 2 times; after that, Bareiss takes it.
    """
    if not _symbolic(omega):
        return _remainder_det(spec, omega)
    bound, e = _degree_bound(spec), _parity(spec)
    if e is None:
        size, weights = bound + 2, ((k + 1) // 2 * (1 if k % 2 else -1) for k in count())
    else:
        size, weights = (bound - e) // 2 + 2, count(e)
    nodes, coef, skips = [], [], bound + 2
    for x in weights:
        if e is not None and len(nodes) == size - 1:
            x = -x  # the check weight
        value = _remainder_det(spec, x, skip_gap=skips > 0)
        if value is None:
            skips -= 1
            continue
        nodes.append(x)
        coef.append(value if e is None else _div_exact(value, x**e))
        if len(nodes) == size:
            break
    check = nodes[-1]
    if e is not None:
        nodes = [x * x for x in nodes]
    # divided differences in place: coef[i] becomes f[x_0, ..., x_i]
    for j in range(1, size):
        for i in range(size - 1, j - 1, -1):
            coef[i] = _div_exact(coef[i] - coef[i - 1], nodes[i] - nodes[i - j])
    if coef[-1]:
        shape = "" if e is None else f" or is not w^{e} R(w^2)"
        raise InexactDivision(
            f"the determinant exceeds its degree bound {bound} in w{shape}: "
            f"the check weight {check} gives Newton coefficient {coef[-1]}"
        )
    var = W if e is None else W * W
    det = OP_ZERO  # Horner on the Newton form
    for k in range(size - 2, -1, -1):
        det = det * (var - nodes[k]) + coef[k]
    return det * W if e else det


def _parity(spec: HankelSpec):
    """e with det(c[i+j]) = w^e R(w^2), or None if the spec has no such parity.

    A Motzkin path of length m has as many level steps as m has parity, so
    M[m](-w) = (-1)^m M[m](w).  When exactly one of alpha, beta is nonzero
    and constant in w, c[k](-w) = (-1)^(k+t) c[k](w) with t = s (beta = 0)
    or s + 1 (alpha = 0), so det(-w) = (-1)^(n*t) det(w), and e = n*t mod 2.
    """
    degrees = as_opoly(spec.alpha).degree, as_opoly(spec.beta).degree
    if degrees == (0, -1):
        return spec.n * spec.shift % 2
    if degrees == (-1, 0):
        return spec.n * (spec.shift + 1) % 2
    return None


def _degree_bound(spec: HankelSpec) -> int:
    """n*D, a bound on the w-degree of det(c[i+j]): D = max(deg alpha + s, deg beta + s + 1).

    Only the nonzero of alpha and beta count: a zero has degree -1 here.
    """
    s = spec.shift
    return spec.n * max(as_opoly(spec.alpha).degree + s, as_opoly(spec.beta).degree + s + 1)


def _remainder_det(spec: HankelSpec, omega, skip_gap: bool = False):
    """det(c[i+j]) at the weight omega by the cut subresultant remainder sequence.

    The subresultant remainder sequence of r_0 = x^(2n) and
    r_1 = sum_k c[k] x^(2n-1-k) has, while every degree step is one,
    r_(k+1) = prem(r_(k-1), r_k) / lc(r_(k-1))^2, and the leading minor of
    dimension k is (-1)^(k(k-1)/2) lc(r_k).  Only the top 2(n-k)+1
    coefficients of r_k reach lc(r_n), so each remainder is cut to those,
    and each cut row is divided by lc(r_(k-1))^2 at once (_div_row).
    A zero leading coefficient before r_n is a zero leading minor, where
    the sequence has a degree gap: the determinant is then taken by
    Bareiss elimination of the Hankel matrix of the same sequence, or,
    with skip_gap, not at all (None).  hankel_det runs this at int weights
    only; at W it is a cross-check of the tests.
    """
    n = spec.n
    c = b = _sequence(spec, omega)  # r_1, cut to its top 2n-1 coefficients
    one = _one(*b)
    a = [one] + [_zero(one)] * (2 * n)  # r_0
    prev = one
    for _ in range(n - 1):
        g = b[0]
        if not g:
            return None if skip_gap else det_fraction_free(_square(c, n))
        a0 = a[0]
        r0 = g * a[1] - a0 * b[1]
        a, b, prev = b, _div_row(
            [g * (g * a[i + 2] - a0 * b[i + 2]) - r0 * b[i + 1] for i in range(len(b) - 2)],
            prev,
        ), g * g
    return -b[0] if n * (n - 1) // 2 % 2 else b[0]


def hankel_closed(spec: HankelSpec, omega=W):
    """The closed form of det(c[i+j]) for a HankelSpec, at the weight omega.

    Christoffel's formula (Szego, Orthogonal Polynomials, Thm 2.5;
    Krattenthaler, Lin. Alg. Appl. 411 (2005)) over the rows n .. n+s of the
    inverse Motzkin triangle, c(m, j) = inverse_motzkin_entry(m, j) (0 for
    j > m), with alpha and beta bound at the weight first:

        det = (-1)^(n(s+1)) det(M') / (-alpha)^s,

    where row i <= s of M' is c(n+i, 0), ..., c(n+i, s-1), h_i, with
    h_i = sum_k c(n+i, k) (-alpha)^k beta^(n+s-k)
        = beta^(s-i) (-1)^(n+i) shifted_hankel_closed(n+i, alpha, beta).
    alpha = 0 is the spec (s+1, beta, 0), since (alpha + beta x) x^s =
    beta x^(s+1); where alpha and beta both vanish at the weight, every
    c[k] is 0 and so is the determinant.  The division by (-alpha)^s is
    exact (_div_exact): a remainder means a wrong formula.  At an int
    weight every term is built from its integer coefficients as an int.
    """
    n, s = spec.n, spec.shift
    alpha, beta = _bind(spec.alpha, omega), _bind(spec.beta, omega)
    zero = _ring(omega)[0]
    if not alpha and not beta:
        return zero
    if not alpha:  # (alpha + beta x) x^s = beta x^(s+1)
        s, alpha, beta = s + 1, beta, 0
    rows = [[inverse_motzkin_entry(n + i, j, omega) if j <= n + i else zero for j in range(s)]
            + [beta ** (s - i) * (-1) ** (n + i) * shifted_hankel_closed(n + i, alpha, beta, omega)]
            for i in range(s + 1)]
    return _div_exact((-1) ** (n * (s + 1)) * det_fraction_free(rows), (-alpha) ** s)


def shifted_hankel_closed(n: int, alpha, beta, omega=W):
    """Closed form sum_i (-beta)^(n-i) alpha^i m[n,i] for det(alpha*M + beta*M'), at omega.

    A term whose power of -beta is 0 is skipped, so beta = 0 costs one term.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    acc, apow = _ring(omega)
    bpows = [apow]
    for _ in range(n):
        bpows.append(bpows[-1] * (-beta))
    for i in range(n + 1):
        if bpows[n - i]:
            acc = acc + bpows[n - i] * apow * inverse_motzkin_entry(n, i, omega)
        apow = apow * alpha
    return acc


def shifted_hankel_binomial(n: int, alpha, beta) -> OmegaPoly:
    """Same determinant as sum_k C(n-k,k)(-1)^k beta^(2k) (alpha+beta*w)^(n-2k)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    alpha, beta = as_opoly(alpha), as_opoly(beta)
    core = alpha + beta * W
    acc = OP_ZERO
    for k in range(n // 2 + 1):
        acc = acc + (-1) ** k * binom(n - k, k) * beta ** (2 * k) * core ** (n - 2 * k)
    return acc


def second_hankel_closed(n: int, omega=W):
    """det (M[i+j+1]) closed form: sum_k C(n-k,k)(-1)^k w^(n-2k), at omega."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * binom(n - k, k)
    return _at_weight(coeffs, omega)


def hankel_recursion_check(n: int) -> CheckResult:
    """det(M[i+j+2])_n = det(M[i+j+2])_(n-1) + det(M[i+j+1])_n^2, symbolically.

    Dimension-0 determinants are 1 by convention, which the identity itself
    forces at n = 1.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    shift2 = leading_minor_dets(hankel_matrix(HankelSpec(n, shift=2)))
    shift1 = leading_minor_dets(hankel_matrix(HankelSpec(n, shift=1)))
    return first_mismatch(
        (f"dimension {d}", lhs, prev + a * a)
        for d, (lhs, prev, a) in enumerate(zip(shift2, [OP_ONE] + shift2, shift1), 1)
    )
