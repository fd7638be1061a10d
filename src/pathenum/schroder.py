"""Paths with horizontal steps of length w; Schroeder and Delannoy structure.

The step set is {up, down, horizontal (w,0)} with weight w on horizontal
steps.  One engine, parametrized by the step exponents (a, b) of the fixed
point mu = 1 + omega t^a mu + t^b mu^2, serves every family: (w, 2) for
step length w, (1, 2) for Motzkin paths (the motzkin module imports it)
and (1, 1) for w = 2 ("Schroeder paths") with the parity zeros removed by
t^2 -> t.  At an int weight the series mu and the grand
(unrestricted-height) series D^(-1/2) are built in linear time by the
same loop (_disc_walk), for all (a, b): both solve a differential
equation of the discriminant D = (1 - omega t^a)^2 - 4 t^b (_disc).
One recurrence on coefficient lists (_band_rows),

    X_m = (1 - omega t^a) X_(m-1) - t^b X_(m-2),  X_0 = 1,

builds the band polynomials and both inverse triangles; only its start
differs.  From X_(-1) = 0 it gives the normalized band polynomials P_m
(the continuants of the band's continued fraction): the column ending at
height j is (mu P_j - P_(j-1)) / t^j, one product of mu with a short
polynomial, the grand column is (D^(-1/2) (P_j - t^b P_(j-2)) - P_(j-1))
/ (2 t^j), and the counts confined to 0 <= y < k have generating function
P_(k-1)/P_k.  From X_(-1) = 1 it gives P_m - t^b P_(m-1), which solves the
same recurrence.  The entry (i, j) of the inverse Motzkin triangle is the
coefficient of t^(i-j) in P_i of the (1, 2) family, and that of the
inverse compressed Schroeder triangle in P_i - t P_(i-1) of the (1, 1)
family, with triangular inversion of the count triangles as the
cross-check.  The compressed triangle, the closed form of its inverse (via
Lagrange inversion), Delannoy numbers and polynomials (the central ones
are the (1, 1) grand series at height 0), and the band theorem linking the
band generating function to the top-of-band column (the Laurent split of
t^(-k) S s_(k-1)) also live here.

The engine checks its own parameters, each where it is used, with
ValueError: the step length, an int a >= 1, in _disc and _band_rows,
the index n >= 0 in _band_rows, the height j >= 0 and the order >= 0 in
_column and _grand, and the band height k >= 1 in _banded.  The family
builders below are bare calls into it, so a direct caller of the engine
gets the same checks as a caller of a builder.  The exponent b is not
checked: every caller passes the constant 1 or 2.

The engine and the builders behind the CLI's seq and matrix take the
weight as their last argument omega, the symbolic W by default.  The
scalars they build follow the weight: OmegaPolys at W, plain ints at an
int weight, with the constants 0 and 1 taken from the weight itself.

The series behind seq are not computed over Z[w] at all.  Put
A = 1 - omega t^a and y = t^b / A^2.  Then mu = A^(-1) C(y), C the Catalan
series, and P_k = A^k p_k(y) for the band continuants p_k (Flajolet,
Discrete Math. 32 (1980)), so every series of an (a, b) family has the
form t^e A^(-c) G(y).  Its value at w = 0 is t^e G(t^b), an int run of
the same builder, and the lift (_lift_rows) reads G off it: the
coefficient of t^n w^r is g_m C(c + 2m - 1 + r, r), n = e + b m + a r.
At W each of these builders is that lift, with

    _series, _banded_series    e = 0,            c = 1
    _column, _grand            e = (b - 1) j,    c = j + 1
    motzkin_column_gf          e = 0,            c = j + 1

while the band polynomials, the rational generating functions and the
triangles are still built over Z[w].  The Motzkin column is the (1, 2)
_column over t^j, lifted from the int column with its j zeros dropped.
Every exact division, of the int runs and of the lift, keeps its
remainder check.

Each row recurrence, _lift_rows and _band_rows, is one generator: it
checks its input before row 0 and holds only the rows it reads next.  _lift
and _band_triangle read row 0 at the call, so a bad input (the step b, the
lattice of the int run, the weight) raises there.  The other rows are built
on first read into a TSeries or TriMatrix, or streamed by the CLI as they
are made, so a remainder raises when its row is made: in the CLI, after the
rows before it were written.

Operations marked weight-1-only implement identities that simply do not
hold for symbolic weight; they take no weight argument at all and build
their operands at the int weight 1.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb

from .algebra import (
    InexactDivision,
    OP_ONE,
    RationalGF,
    TPoly,
    TSeries,
    W,
    _RowSeries,
    _at_weight,
    _div_exact,
    _ring,
    _sum_products,
    _symbolic,
    binom,
    binom_general,
)
from .checks import CheckResult, first_mismatch
from .matrices import TriMatrix, _RowTriangle
from .oracle import QUADRANT, CountTable, IndexOutOfTriangle, PathSpec, _step_length, compressed_series

ONE_MINUS_T = TPoly([1, -1])


def _lift_rows(a: int, b: int, e: int, c: int, q0: TSeries, order: int):
    """Rows n = 0..order of the lift of q0: the coefficients in w of its t^n, yielded as made.

    Row n is made from row n - a alone.  With m = (n - e - a r)/b, which is
    constant along a diagonal of the coefficients g_m C(c+2m-1+r, r),

        row_n[0] = q0[n],    row_n[r] = row_(n-a)[r-1] (c - 1 + r + 2m) / r,

    so each nonzero entry takes one divmod, and a remainder raises
    InexactDivision (a bug sentinel) when its row is made; zeros are
    skipped.  For b = 1 or 2 the factor c - 1 + r + 2m steps by 1 - 2a/b
    from one r to the next.  Row n has (n - e)//a + 1 entries and none
    below e.  Only the last min(a, order + 1) rows are held; a consumer
    must not change a row it is given.  Before row 0, any other b raises
    ValueError, and a nonzero q0[n] off the lattice e + b m, or below e,
    raises InexactDivision.
    """
    if b not in (1, 2):
        raise ValueError(f"the lift needs b = 1 or 2, got {b}")
    q0 = q0.coeffs
    for n in range(order + 1):
        if q0[n] and (n < e or (n - e) % b):
            raise InexactDivision(f"coefficient {q0[n]} of t^{n} at w = 0 is off the lattice {e} + {b}m")
    step = 1 - 2 * a // b
    held = [[]] * min(a, order + 1)  # row n - a, ..., row n - 1, at index n mod a
    for n in range(order + 1):
        row = [q0[n]] if n >= e else []
        factor = c - 1 + 2 * (n - e) // b  # c - 1 + r + 2m at r = 0
        for r, x in enumerate(held[n % a], 1):
            factor += step
            if x:
                x, rest = divmod(x * factor, r)
                if rest:
                    raise InexactDivision(f"lift coefficient of t^{n} w^{r} not divisible by {r}")
            row.append(x)
        held[n % a] = row
        yield row


def _lift(a: int, b: int, e: int, c: int, q0: TSeries, order: int) -> TSeries:
    """t^e (1 - w t^a)^(-c) G(t^b / (1 - w t^a)^2) over Z[w] to order, from its run q0 at w = 0.

    q0 = t^e G(t^b): g_m is its coefficient of t^(e + b m).  Since
    (1 - w t^a)^(-c-2m) = sum_r C(c+2m-1+r, r) w^r t^(a r), the coefficient
    of t^n w^r is

        g_m C(c+2m-1+r, r),  where n = e + b m + a r,

    made row by row by _lift_rows; its checks of b and q0 raise here.
    """
    rows = functools.partial(_lift_rows, a, b, e, c, q0, order)
    next(rows())  # checks b and the lattice of q0 now, not on first read
    return _RowSeries(rows, order)


def _disc(a: int, b: int, omega) -> tuple:
    """The terms (i, D_i) of D - 1 = -2 omega t^a + omega^2 t^(2a) - 4 t^b at an int weight.

    Equal powers are merged and zeros dropped; the step length a must be an int >= 1.
    """
    _step_length(a)
    terms = {}
    for i, d in ((a, -2 * omega), (2 * a, omega * omega), (b, -4)):
        terms[i] = terms.get(i, 0) + d
    return tuple((i, d) for i, d in terms.items() if d)


def _disc_walk(disc: tuple, factor: int, s: int, rhs: dict, f: list, order: int) -> list:
    """Extend the head f to f_0..f_order: f_n is the t^(n+s) coefficient of u, 2 D u' = lam D' u + R.

    At an int weight, with the terms D_i of D - 1 in disc (_disc), R by power
    of t in rhs and factor = 2 + lam, each coefficient is one step,
    2(n+s) f_n = R_n + sum_{i>=1} (factor i - 2(n+s)) D_i f_(n-i).  The
    division is exact; a remainder raises InexactDivision (a bug sentinel).
    """
    for n in range(len(f), order + 1):
        m = n + s
        total = rhs.get(n, 0)
        for i, d in disc:
            if i <= n:
                total += (factor * i - 2 * m) * d * f[n - i]
        f.append(_div_exact(total, 2 * m))
    return f


def _series(a: int, b: int, order: int, omega=W) -> TSeries:
    """Coefficients of mu = 1 + omega t^a mu + t^b mu^2, in linear time.

    At W, mu = (1 - w t^a)^(-1) C(t^b / (1 - w t^a)^2), C the Catalan
    series, and it is lifted (_lift, e = 0, c = 1) from its run at w = 0.
    At an int weight, with A = 1 - omega t^a, the root s = A - 2 t^b mu of
    the discriminant D = A^2 - 4 t^b satisfies 2 D s' = D' s.  Put
    u = t^b mu = (A - s)/2:

        2 D u' - D' u = 2b t^(b-1) A - 4 t^b A',

    so u is _disc_walk with s = b, factor 3 and R = 2b + (4a - 2b) omega t^a,
    which makes every coefficient of mu an int.
    """
    if _symbolic(omega):
        return _lift(a, b, 0, 1, _series(a, b, order, 0), order)
    rhs = {0: 2 * b, a: (4 * a - 2 * b) * omega}  # R, by power of t
    return TSeries(_disc_walk(_disc(a, b, omega), 3, b, rhs, [], order), order)


def _band_rows(a: int, b: int, n: int, omega, start: int):
    """Coefficient lists of X_m = (1 - omega t^a) X_(m-1) - t^b X_(m-2), m <= n, X_(-1) = start.

    X_0 = 1, and X_m keeps a m + 1 entries, so a top coefficient that vanishes
    at an int weight still pads it; that needs b <= 2a, and b <= a if start is 1.
    The arguments are checked before X_0; only X_(m-1) and X_(m-2) are
    held, and a consumer must not change a list it is given.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    _step_length(a)
    zero, one = _ring(omega)
    below, row = [one] * start, [one]  # X_(-1), X_0
    yield row
    for _ in range(n):
        nxt = row + [zero] * a
        for k, x in enumerate(row):
            nxt[k + a] -= omega * x
        for k, x in enumerate(below):
            nxt[k + b] -= x
        below, row = row, nxt
        yield row


def _band_polys(a: int, b: int, n: int, omega=W) -> list:
    """[P_0, ..., P_n] by P_m = (1 - omega t^a) P_(m-1) - t^b P_(m-2), P_(-1) = 0."""
    return [TPoly(row) for row in _band_rows(a, b, n, omega, 0)]


def _column(a: int, b: int, j: int, order: int, omega=W) -> TSeries:
    """Counts ending at height j as t^(-j) (mu P_j - P_(j-1)).

    The j lowest coefficients of the numerator vanish identically, which
    shift_down re-checks.  The index alignment (no offset) is calibrated
    against the oracle.  At W the column is t^((b-1) j) (1 - w t^a)^(-j-1)
    G(y), lifted (_lift) from its run at w = 0.
    """
    if j < 0:
        raise ValueError("height must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if _symbolic(omega):
        return _lift(a, b, (b - 1) * j, j + 1, _column(a, b, j, order, 0), order)
    mu = _series(a, b, order + j, omega)
    if not j:
        return mu  # P_0 = 1, P_(-1) = 0
    family = _band_polys(a, b, j, omega)
    return (mu * family[j] - family[j - 1]).shift_down(j)


def _grand(a: int, b: int, j: int, order: int, omega=W) -> TSeries:
    """Unrestricted counts ending at height j: g t^((b-1) j) mu^j, g = D^(-1/2).

    At an int weight g solves 2 D g' = -D' g: _disc_walk with s = 0,
    factor 1, R = 0 and g_0 = 1.  For j >= 1, s = A - 2 t^b mu = D^(1/2) gives
    g t^b mu = (A g - 1)/2, and the band recursion turns the column into
    t^(-j) (g (P_j - t^b P_(j-2)) - P_(j-1)) / 2, P_(-1) = 0, whose j
    vanishing coefficients shift_down re-checks.  Every division raises
    InexactDivision on a remainder.  At W it is lifted with _column's offsets.
    """
    if j < 0:
        raise ValueError("height must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if _symbolic(omega):
        return _lift(a, b, (b - 1) * j, j + 1, _grand(a, b, j, order, 0), order)
    g = _disc_walk(_disc(a, b, omega), 1, 0, {}, [1], order + j)
    if not j:
        return TSeries(g, order)
    below, mid, top = ([TPoly(())] + _band_polys(a, b, j, omega))[j - 1:]  # P_(j-2), P_(j-1), P_j
    twice = (TSeries(g, order + j) * (top - below.shift(b)) - mid).shift_down(j)
    return TSeries([_div_exact(c, 2) for c in twice.coeffs], order)


def _banded(a: int, b: int, k: int, omega=W) -> RationalGF:
    """Counts at height 0 confined to 0 <= y < k, as P_(k-1) / P_k."""
    if k < 1:
        raise ValueError("band height must be >= 1")
    family = _band_polys(a, b, k, omega)
    return RationalGF(family[k - 1], family[k])


def _banded_series(a: int, b: int, k: int, order: int, omega=W) -> TSeries:
    """The expansion of P_(k-1) / P_k to order.

    At W it is (1 - w t^a)^(-1) p_(k-1)(y) / p_k(y), lifted (_lift, e = 0,
    c = 1) from its run at w = 0.
    """
    if _symbolic(omega):
        return _lift(a, b, 0, 1, _banded_series(a, b, k, order, 0), order)
    return _banded(a, b, k, omega).expand(order)


def _band_triangle(a: int, b: int, n: int, omega, start: int = 0) -> TriMatrix:
    """n x n triangle whose entry (i, j) is the coefficient of t^(i-j) in X_i of _band_rows.

    Row i is X_i reversed, built on first read or streamed (stream).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")

    def rows():
        return (row[i::-1] for i, row in enumerate(_band_rows(a, b, n - 1, omega, start)))

    next(rows())  # checks the arguments of _band_rows now, not on first read
    return _RowTriangle(rows, n)


def _count_triangle(spec: PathSpec, n: int, omega=W) -> TriMatrix:
    """n x n oracle triangle; entry (i, j) counts paths to (w i - (w-1) j, j).

    That is the point (i, j) for w = 1 and the compressed entry for w = 2.
    No path to an entry rises to height n, so a quadrant spec is counted in that band.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    w = spec.w
    table = CountTable(PathSpec.banded(n, w) if spec.mode == QUADRANT else spec, w * (n - 1), omega)
    return TriMatrix(
        [[table.value(w * i - (w - 1) * j, j) for j in range(i + 1)] for i in range(n)]
    )


def w_series(w: int, order: int) -> TSeries:
    """Quadrant path counts at height 0, from mu = 1 + omega t^w mu + t^2 mu^2."""
    return _series(w, 2, order)


def schroder_series(order: int) -> TSeries:
    """Compressed w=2 counts at height 0: mu = 1 + omega t mu + t mu^2."""
    return _series(1, 1, order)


def w_p_poly(n: int, w: int) -> TPoly:
    """Normalized t^n p_n(t) = sum_j C(n-j,j) (-1)^j t^(2j) (1 - omega t^w)^(n-2j)."""
    return _band_polys(w, 2, n)[n]


def compressed_p_poly(n: int) -> TPoly:
    """w=2 band polynomial after t^2 -> t: sum_j C(n-j,j)(-1)^j t^j (1-omega t)^(n-2j)."""
    return _band_polys(1, 1, n)[n]


def w_column_gf(j: int, w: int, order: int, omega=W) -> TSeries:
    """Quadrant counts ending at height j: coefficient of t^n counts paths to (n, j)."""
    return _column(w, 2, j, order, omega)


def compressed_column_gf(j: int, order: int, omega=W) -> TSeries:
    """Compressed w=2 counts ending at height j.

    Coefficient of t^n is the compressed-triangle entry (n+j, j), i.e. the
    count of quadrant w=2 paths to (2n+j, j); calibrated against the oracle.
    """
    return _column(1, 1, j, order, omega)


def banded_w_gf(k: int, w: int, omega=W) -> RationalGF:
    """Counts below height k as P_(k-1)/P_k; t^n counts paths to (n, 0)."""
    return _banded(w, 2, k, omega)


def banded_w_series(k: int, w: int, order: int, omega=W) -> TSeries:
    """The expansion of banded_w_gf(k, w, omega) to order; at W by the lift, not the quotient."""
    return _banded_series(w, 2, k, order, omega)


def banded_schroder_series(k: int, order: int, omega=W) -> TSeries:
    """Compressed banded w=2 counts at height 0."""
    return _banded_series(1, 1, k, order, omega)


def schroder_matrix_compressed(n: int, omega=W) -> TriMatrix:
    """n x n compressed Schroeder triangle; entry (i,j) = compressed count (i,j)."""
    return _count_triangle(PathSpec.quadrant(w=2), n, omega)


def inverse_schroder_entry(k: int, j: int, omega=W):
    """Entry s[k,j] of the inverse compressed triangle, in closed form.

    s[k,j] = (-1)^(k-j) sum_m C(k+1-2m, k-j-m) (j+1)/(k-m+1) C(k-m+1, m)
             omega^(k-j-m).

    The rational factors always cancel: each term is one exact integer
    division, and a remainder raises InexactDivision (bug sentinel, not a
    data error).  The entry is an OmegaPoly at W and an int at an int weight.
    """
    if j < 0 or j > k:
        raise IndexOutOfTriangle(f"column {j} outside triangle row {k}")
    d = k - j
    coeffs = [0] * (d + 1)
    sign = (-1) ** d
    for m in range(d + 1):
        num = (j + 1) * binom(k + 1 - 2 * m, d - m) * binom(k - m + 1, m)
        coeffs[d - m] = sign * _div_exact(num, k - m + 1)
    return _at_weight(coeffs, omega)


def inverse_schroder_poly(n: int, omega=W) -> TPoly:
    """Row polynomial s_n(t) = sum_k s[n,k] t^(n-k), read from the closed-form entries."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return TPoly([inverse_schroder_entry(n, n - p, omega) for p in range(n + 1)])


def inverse_schroder_matrix(n: int, omega=W) -> TriMatrix:
    """Inverse of the n x n compressed triangle, read off the band polynomials.

    Row i holds the coefficients of P_i - t P_(i-1) of the (1, 1) family,
    X_i of _band_rows from X_(-1) = 1: entry (i, j) is the coefficient of
    t^(i-j).  Inverting schroder_matrix_compressed by forward substitution
    and the closed-form entries inverse_schroder_entry are the cross-checks.
    """
    return _band_triangle(1, 1, n, omega, 1)


def inverse_schroder_column_gf(k: int, order: int) -> TSeries:
    """Weight-1 column generating function of the inverse compressed triangle.

    The validated form is t^k ((1-t)/(1+t))^(k+1): its t^n coefficient equals
    s[n,k] at weight 1 for n >= k.  (The frequently printed variant
    ((1-t)/(1+t))^k does not reproduce the triangle; see the discrepancy
    registry.)
    """
    if k < 0:
        raise ValueError("column must be nonnegative")
    num = (ONE_MINUS_T ** (k + 1)).shift(k)
    den = TPoly([1, 1]) ** (k + 1)
    return RationalGF(num, den).expand(order)


def delannoy_number(n: int, k: int, omega=W):
    """Weighted Delannoy number D(n,k) = sum_l C(k,l) C(n+k-l, k) omega^l.

    An OmegaPoly at W and an int at an int weight.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    # 0 <= l <= min(n, k): every index is in range, so math.comb, not binom
    return _at_weight([comb(k, l) * comb(n + k - l, k) for l in range(min(n, k) + 1)], omega)


def central_delannoy_series(order: int, omega=W) -> TSeries:
    """The central Delannoy numbers D(n, n), n <= order: the (1, 1) grand series at height 0.

    They count the unrestricted compressed Schroeder paths to (2n, 0), and
    delannoy_number, the closed sum, is the cross-check.
    """
    return _grand(1, 1, 0, order, omega)


def delannoy_poly(k: int, omega=W) -> TPoly:
    """Delannoy polynomial d_k(t) = sum_l C(k-l,l) omega^l t^l (1+t)^(k-2l).

    Built from its coefficients: that of t^j is D(k-j, j), delannoy_number;
    d_k(0) = 1 and the degree is k.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    return TPoly([delannoy_number(k - j, j, omega) for j in range(k + 1)])


def _d_neg_at1(k: int) -> TPoly:
    """d_k(-t) at weight 1; zero polynomial for k < 0."""
    if k < 0:
        return TPoly(())
    return delannoy_poly(k, 1).at_neg_t()


def banded_schroder_gf(k: int) -> RationalGF:
    """Weight-1 compressed banded counts as P_(k-1)/P_k, the band that seq banded prints.

    verify bridge checks these P_n against the Delannoy polynomials: P_n = d_n(-t).
    """
    return _banded(1, 1, k, 1)


def delannoy_recursion_check(horizon: int) -> CheckResult:
    """D(n,n+j) = omega D(n-1,n-1+j) + D(n,n+j-1) + D(n-1,n+j), symbolically."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    d = functools.cache(lambda n, k: delannoy_number(n, k))
    return first_mismatch(
        (f"(n={n}, j={j})", d(n, n + j),
         _sum_products(((W, d(n - 1, n - 1 + j)), (OP_ONE, d(n, n + j - 1)), (OP_ONE, d(n - 1, n + j)))))
        for n in range(1, horizon + 1)
        for j in range(horizon + 1)
    )


def delannoy_s_bridge_check(bound: int) -> CheckResult:
    """The four weight-1 identities tying s, d and the band polynomials, n = 1..bound.

    d_(-1..bound+1)(-t), the compressed band polynomials P_0..P_bound and
    s_1..s_bound are each built once; at every n, in this order:
    1. (1-t) s_n = t^2 d_(n-1)(-t) + d_(n+1)(-t), compared as products;
    2. s_n = d_n(-t) - t d_(n-1)(-t);
    3. the normalized compressed band polynomial P_n equals d_n(-t);
    4. d_(n-1)(-t) = t d_(n-1)(-t) + t d_(n-2)(-t) + d_n(-t).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    d = {k: _d_neg_at1(k) for k in range(-1, bound + 2)}
    p = _band_polys(1, 1, bound, 1)

    def comparisons():
        for n in range(1, bound + 1):
            sn = inverse_schroder_poly(n, 1)
            yield f"quotient identity at n={n}", ONE_MINUS_T * sn, d[n - 1].shift(2) + d[n + 1]
            yield f"difference identity at n={n}", sn, d[n] - d[n - 1].shift(1)
            yield f"band-polynomial bridge at n={n}", p[n], d[n]
            rhs = d[n - 1].shift(1) + d[n - 2].shift(1) + d[n]
            yield f"three-term recursion at n={n}", d[n - 1], rhs

    return first_mismatch(comparisons())


def band_times_s(k: int, order: int) -> TSeries:
    """S s_(k-1) through t^(order+k), S = banded_schroder_gf(k), the engine's band at weight 1."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return banded_schroder_gf(k).expand(order + k) * inverse_schroder_poly(k - 1, 1)


def theorem_schroeder_check(k: int, order: int, product: TSeries) -> CheckResult:
    """The Laurent split of t^(-k) S s_(k-1), on the coefficients c of S s_(k-1).

    At weight 1 and band k >= 2, with S the compressed banded series:
      principal part c[:k]   =  s_(k-2), padded with zeros to length k;
      regular part c[k + n]  =  compressed banded count of paths of length
                                n+k-1 ending at height k-1 (oracle-checked).
    Equivalently S*s_(k-1) - s_(k-2) = sum_n count(n, k-1) t^(n+1); the
    alignment is calibrated on the oracle.  product is band_times_s(k, order).
    """
    if k < 2:
        raise ValueError("band height must be >= 2 (no s polynomial of index -1)")
    if order < 0:
        raise ValueError("order must be nonnegative")

    def comparisons():
        skm2 = inverse_schroder_poly(k - 2, 1)
        for m in range(k):
            yield f"principal coefficient t^{m - k} (k={k})", product.coeffs[m], skm2.coeff(m)
        col = compressed_series(k - 1, order + k - 1, band=k, omega=1)
        for n in range(order + 1):
            yield f"regular coefficient t^{n} (k={k})", product.coeffs[k + n], col.coeff(n + k - 1)

    return first_mismatch(comparisons())


def gould_identity_check(k: int, m: int) -> CheckResult:
    """Half-integer binomial identity, exact rational arithmetic.

    sum_l C(k+1,l) C(l/2, m) = (k+1)/(k-2m+1) C(k-m, m) 2^(k+1-2m),
    for 0 <= m <= k/2.
    """
    if not 0 <= 2 * m <= k:
        raise ValueError("need 0 <= m <= k/2")
    lhs = sum(
        (binom(k + 1, l) * binom_general(Fraction(l, 2), m) for l in range(k + 2)),
        Fraction(0),
    )
    rhs = Fraction(k + 1, k - 2 * m + 1) * binom(k - m, m) * 2 ** (k + 1 - 2 * m)
    return first_mismatch([(f"(k={k}, m={m})", lhs, rhs)])
