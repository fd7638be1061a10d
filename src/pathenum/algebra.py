"""Exact scalar, polynomial, and series arithmetic over Z[w] or Z.

A scalar of this package is either a polynomial in the horizontal-step
weight w with arbitrary-precision integer coefficients (OmegaPoly), or, once
an integer weight is bound, a plain Python int.  The containers hold one
kind of scalar each:

  * TPoly         polynomial in t
  * TSeries       truncated power series in t, explicit truncation order
  * RationalGF    num/den pair of TPolys, expandable to a TSeries

A container keeps its entries as ints when every entry is an int, a bool
as the int it equals; if any is an OmegaPoly, all are coerced to OmegaPoly
(_scalar_rows).  The ring operations are written once for both kinds: zero
tests are truthiness, the constants 0 and 1 of a computation come from its
weight or its operands (_zero, _one), and an exact division raises
InexactDivision on a remainder for either kind (_div_exact, and _div_row for
a whole row in one pass).  Every isinstance test on a scalar's kind is in
this module.

There are no floating-point numbers and no numeric roots anywhere:
generating functions are produced from their algebraic or recursive
characterizations (the one square root, of the step family's discriminant,
is an exact series built by its linear recurrence), so all coefficients
stay in Z[w].  Rational numbers appear only in binom_general (half-integer
binomial coefficients), backed by fractions.Fraction.

OmegaPoly arithmetic runs on the integer coefficient-vector kernels of
pathenum.kernels.  Each ring algorithm has one implementation shared by the
classes that need it: one square-and-multiply loop (_power) behind every
__pow__, one convolution loop behind the TPoly and TSeries products, one
series-quotient recursion (_quotient, which also owns the check that the
denominator's constant term is a unit) behind TSeries.inverse (1/den) and
RationalGF.expand (num/den), and one read-out of w-free values as ints
(_ints).  A series times a polynomial convolves with the polynomial as the
outer factor, so its cost is linear in the truncation order.  TPoly has no
division; the package's one polynomial long division is kernels.vdivexact.

Over Z[w], two sums of products are fused: _sum_products hands all the
pairs of coefficient vectors to one kernels.vdot, which accumulates the
products into one list and normalizes once, so the sum builds one OmegaPoly
instead of one per product and one per partial sum.  The two are the dot
products of motzkin._dot (first-return among them) and the right-hand sides
of schroder.delannoy_recursion_check.  The oracle's table at W needs none:
it adds coefficient tuples a column at a time (oracle._columns).
_convolve, _quotient and the Bareiss update run one plain loop for both
kinds: over Z[w] no workload runs the first two, and the third makes a
handful of updates, too few for a fused sum to pay.  Over Z the loops stay plain int arithmetic, which a fused
call would only slow down.

A builder's weight is the symbolic W or an int.  The scalars a builder
makes follow the weight: at an int weight every one is an int, so the same
loops run over Z on Python ints with no polynomial wrapper.  _at_weight
binds the weight in a polynomial given by its integer coefficients in the
weight, and _bind binds it in a scalar.

All values are immutable after construction and all operations are pure
functions, so values can be shared freely between threads.  A series made
row by row (_RowSeries, the lift at W) builds its coefficients on first
read; two threads that read it at once build equal tuples.  The text of a
polynomial in w has one formatter (_w_text, and _w_json for its JSON
value), which OmegaPoly and the CLI's writer share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .kernels import (
    vadd,
    vdivexact,
    vdivexact_int,
    vdot,
    veval,
    vmul,
    vneg,
    vnorm,
    vscale,
    vsub,
)


class NonUnitConstant(ValueError):
    """Series inversion requires a constant term of +1 or -1."""


class InexactDivision(ArithmeticError):
    """An exact division left a remainder; signals an implementation bug."""


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def binom_general(a, k: int) -> Fraction:
    """Generalized binomial C(a, k) = a(a-1)...(a-k+1)/k! for rational a."""
    if k < 0:
        return Fraction(0)
    a = Fraction(a)
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / math.factorial(k)


class OmegaPoly:
    """Univariate polynomial in the weight w, exact integer coefficients.

    Canonical form: the stored coefficient tuple has no trailing zeros and
    the zero polynomial is the empty tuple.  Ints mix freely with OmegaPoly
    in arithmetic expressions.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        self._c = vnorm(tuple(coeffs))

    @property
    def coeffs(self) -> tuple:
        return self._c

    @property
    def degree(self) -> int:
        """Degree in w; -1 for the zero polynomial."""
        return len(self._c) - 1

    def __bool__(self):
        return bool(self._c)

    def __add__(self, other):
        other = as_opoly(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(vadd(self._c, other._c))

    __radd__ = __add__

    def __sub__(self, other):
        other = as_opoly(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(vsub(self._c, other._c))

    def __rsub__(self, other):
        other = as_opoly(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(vsub(other._c, self._c))

    def __neg__(self):
        return _raw(vneg(self._c))

    def __mul__(self, other):
        if isinstance(other, int):
            return _raw(vscale(self._c, other))
        if isinstance(other, OmegaPoly):
            return _raw(vmul(self._c, other._c))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, OP_ONE)

    def __eq__(self, other):
        other = as_opoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a constant hashes as the int it equals, so that equal containers of
        # either kind of scalar hash equal
        c = self._c
        return hash(c) if len(c) > 1 else hash(c[0]) if c else 0

    def evaluate(self, x: int) -> int:
        """Exact Horner evaluation at an integer weight."""
        return veval(self._c, x)

    def exact_div(self, other: "OmegaPoly") -> "OmegaPoly":
        """Exact quotient self / other in Z[w]; raises InexactDivision."""
        other = as_opoly(other)
        q = vdivexact(list(self._c), list(other._c))
        if q is None:
            raise InexactDivision(f"({self}) not divisible by ({other})")
        return _raw(q)

    def exact_div_int(self, k: int) -> "OmegaPoly":
        """Exact quotient self / k for an integer k; raises InexactDivision."""
        q = vdivexact_int(self._c, k)
        if q is None:
            raise InexactDivision(f"({self}) not divisible by {k}")
        return _raw(q)

    def __str__(self):
        return _w_text(self._c)

    def __repr__(self):
        return f"OmegaPoly({list(self._c)!r})"

    def to_json(self) -> list:
        """JSON value: coefficients as decimal strings, ascending powers."""
        return _w_json(self._c)


def _w_text(coeffs) -> str:
    """The text of sum_i coeffs[i] w^i, as OmegaPoly prints it: "2 + 6*w^2 + w^4".

    Zero coefficients, trailing ones included, are skipped, and no term
    leaves "0".  OmegaPoly.__str__ and the CLI's writer, which formats
    coefficient lists without making an OmegaPoly, both print through it.
    """
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "w" if mag == 1 else f"{mag}*w"
        else:
            body = f"w^{i}" if mag == 1 else f"{mag}*w^{i}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def _w_json(coeffs) -> list:
    """The JSON value of sum_i coeffs[i] w^i: decimal strings, ascending, no trailing zeros."""
    return [str(c) for c in vnorm(coeffs)]


def _raw(coeffs) -> OmegaPoly:
    p = OmegaPoly.__new__(OmegaPoly)
    p._c = tuple(coeffs)
    return p


def as_opoly(x):
    """Coerce an int to OmegaPoly; pass OmegaPoly through."""
    if isinstance(x, OmegaPoly):
        return x
    if isinstance(x, int):
        return OmegaPoly((x,)) if x else OP_ZERO
    return NotImplemented


OP_ZERO = _raw(())
OP_ONE = _raw((1,))
W = _raw((0, 1))


def _zero(*scalars):
    """The zero of the scalars' ring: OP_ZERO if any is an OmegaPoly, else 0.

    A container holds one kind of scalar, so its first entry stands for all.
    """
    return OP_ZERO if any(isinstance(x, OmegaPoly) for x in scalars) else 0


def _one(*scalars):
    """The one of the scalars' ring: OP_ONE if any is an OmegaPoly, else 1."""
    return OP_ONE if any(isinstance(x, OmegaPoly) for x in scalars) else 1


def _scalar_rows(rows) -> tuple:
    """rows (iterables of scalars) as tuples of one kind of scalar.

    All ints stay ints, and an int subclass (a bool) counts as the int it
    equals; if any entry is an OmegaPoly, every entry is coerced to OmegaPoly.
    Anything else raises TypeError.
    """
    rows = tuple(tuple(row) for row in rows)
    kinds = {type(x) for row in rows for x in row}
    if kinds <= {int} or kinds == {OmegaPoly}:
        return rows
    for kind in kinds:
        if not issubclass(kind, (int, OmegaPoly)):
            raise TypeError(f"{kind.__name__} is not a scalar (int or OmegaPoly)")
    rows = tuple(tuple(x if isinstance(x, OmegaPoly) else int(x) for x in row) for row in rows)
    if all(issubclass(kind, int) for kind in kinds):
        return rows
    return tuple(tuple(map(as_opoly, row)) for row in rows)


def _div_exact(a, b):
    """The exact quotient a / b of scalars; InexactDivision on a remainder.

    Ints divide by divmod; an OmegaPoly divides by an int coefficient-wise
    and by an OmegaPoly by exact long division.
    """
    if isinstance(a, OmegaPoly):
        return a.exact_div_int(b) if isinstance(b, int) else a.exact_div(b)
    q, r = divmod(a, b)
    if r:
        raise InexactDivision(f"{a} not divisible by {b}")
    return q


def _div_row(row: list, d) -> list:
    """The exact quotients x / d of a row; InexactDivision on any remainder.

    Ints divide by divmod in one pass; OmegaPolys entry by entry (_div_exact).
    """
    if isinstance(d, OmegaPoly):
        return [_div_exact(x, d) for x in row]
    quotients = []
    for x in row:
        q, r = divmod(x, d)
        if r:
            raise InexactDivision(f"{x} not divisible by {d}")
        quotients.append(q)
    return quotients


def _ring(omega) -> tuple:
    """(zero, one) of the scalars built at the weight W or an int; else ValueError."""
    if isinstance(omega, int):
        return 0, 1
    if omega != W:
        raise ValueError(f"weight {omega} is neither W nor an int")
    return OP_ZERO, OP_ONE


def _symbolic(omega) -> bool:
    """True at the weight W, False at an int weight; any other weight raises ValueError (_ring)."""
    _ring(omega)
    return not isinstance(omega, int)


def _at_weight(coeffs, omega):
    """sum_l coeffs[l] omega^l, for integer coeffs and the weight W or an int.

    An int at an int weight, an OmegaPoly at W; any other weight raises
    ValueError (_ring).
    """
    if isinstance(omega, int):
        acc = 0
        for x in reversed(coeffs):
            acc = acc * omega + x
        return acc
    _ring(omega)  # W, or ValueError
    return OmegaPoly(coeffs)


def _bind(x, omega):
    """The scalar x with w bound to the weight omega: x itself at W, an int at an int weight."""
    return x.evaluate(omega) if isinstance(x, OmegaPoly) and isinstance(omega, int) else x


def _plain(x):
    """x for repr: an int, or an OmegaPoly's coefficient list."""
    return list(x.coeffs) if isinstance(x, OmegaPoly) else x


def _power(base, n: int, one):
    """base**n by square-and-multiply from `one`; never squares after the top bit."""
    if n < 0:
        raise ValueError("negative power (a series reciprocal is inverse())")
    result = one
    while True:
        if n & 1:
            result = result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _ints(values) -> list:
    """Scalars constant in w, as plain ints; ValueError for one that is not."""
    out = []
    for c in values:
        if isinstance(c, OmegaPoly):
            if c.degree > 0:
                raise ValueError(f"{c} still depends on w")
            c = c.coeffs[0] if c.coeffs else 0
        out.append(c)
    return out


def _sum_products(pairs) -> OmegaPoly:
    """sum x*y over pairs of scalars, as one OmegaPoly; an int is coerced (as_opoly).

    One kernels.vdot accumulates every product, so no OmegaPoly is built per
    product or per partial sum.
    """
    return _raw(vdot((as_opoly(x)._c, as_opoly(y)._c) for x, y in pairs))


def _convolve(a, b, length: int) -> list:
    """The first `length` coefficients of the product of coefficient tuples a and b.

    One loop serves both kinds and skips the zero coefficients of either
    operand.
    """
    out = [_zero(*a[:1], *b[:1])] * length
    for i in range(min(len(a), length)):
        x = a[i]
        if not x:
            continue
        for j in range(min(len(b), length - i)):
            y = b[j]
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _quotient(num, den, order: int) -> list:
    """The first order+1 coefficients of num/den, for coefficient tuples.

    den[0] must be +1 or -1, so it is its own inverse and every coefficient
    stays in Z[w]:
    q[n] = den[0] * (num[n] - sum_{k=1..n} den[k] * q[n-k]).
    One loop serves both kinds and skips the zero coefficients of den.  It
    makes no fused sum, since no CLI command divides series over Z[w]; the
    two fused sums of products are motzkin._dot and
    schroder.delannoy_recursion_check.  Any other
    constant term, a zero denominator's included, raises NonUnitConstant.
    """
    zero = _zero(*num[:1], *den[:1])
    d0 = den[0] if den else zero
    if d0 != 1 and d0 != -1:
        raise NonUnitConstant(f"constant term {d0} of the denominator is not +1 or -1")
    out = [zero] * (order + 1)
    for n in range(order + 1):
        acc = num[n] if n < len(num) else zero
        for k in range(1, min(n, len(den) - 1) + 1):
            dk = den[k]
            if dk:
                acc = acc - dk * out[n - k]
        out[n] = d0 * acc
    return out


class TPoly:
    """Polynomial in t with scalar coefficients, dense ascending order.

    There is no division: an exact quotient of integer coefficient vectors
    is kernels.vdivexact.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        (cs,) = _scalar_rows([coeffs])
        self._c = vnorm(cs)

    @property
    def coeffs(self) -> tuple:
        return self._c

    def coeff(self, n: int):
        if 0 <= n < len(self._c):
            return self._c[n]
        return _zero(*self._c[:1])

    def __add__(self, other):
        other = _as_tpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return TPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_tpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return TPoly([-c for c in self._c])

    def __mul__(self, other):
        if isinstance(other, (int, OmegaPoly)):
            return TPoly([c * other for c in self._c])
        if isinstance(other, TPoly):
            return TPoly(_convolve(self._c, other._c, len(self._c) + len(other._c) - 1))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, TPoly([_one(*self._c[:1])]))

    def __eq__(self, other):
        other = _as_tpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def shift(self, k: int) -> "TPoly":
        """Multiply by t^k, k >= 0."""
        if k < 0:
            raise ValueError(f"cannot multiply a polynomial by t^{k}")
        if not self._c:
            return self
        return TPoly((_zero(self._c[0]),) * k + self._c)

    def at_neg_t(self) -> "TPoly":
        """Substitute t -> -t: negate coefficients of odd powers."""
        return TPoly([-c if i % 2 else c for i, c in enumerate(self._c)])

    def to_series(self, order: int) -> "TSeries":
        return TSeries([self.coeff(n) for n in range(order + 1)], order)

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self._c) + "]"

    def __repr__(self):
        return f"TPoly({[_plain(c) for c in self._c]!r})"


def _as_tpoly(x):
    if isinstance(x, TPoly):
        return x
    if isinstance(x, (int, OmegaPoly)):
        return TPoly((x,))
    return NotImplemented


class TSeries:
    """Truncated power series in t with scalar coefficients.

    Carries its truncation order N (inclusive): coefficients of t^0..t^N are
    stored and meaningful, anything beyond is unknown.  Arithmetic on series
    of orders N1 and N2 yields order min(N1, N2) and never reads past an
    operand's order.
    """

    __slots__ = ("_c", "order")

    def __init__(self, coeffs, order: int = None):
        (cs,) = _scalar_rows([coeffs])
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(cs) < order + 1:
            cs += (_zero(*cs[:1]),) * (order + 1 - len(cs))
        self._c = cs[: order + 1]
        self.order = order

    @property
    def coeffs(self) -> tuple:
        return self._c

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self._c[n]

    def __add__(self, other):
        other = _as_tseries(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.order, other.order)
        return TSeries([self._c[i] + other._c[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return TSeries([-c for c in self._c], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, OmegaPoly)):
            return TSeries([c * other for c in self._c], self.order)
        if isinstance(other, TPoly):  # the short factor outside: linear in the order
            return TSeries(_convolve(other._c, self._c, self.order + 1), self.order)
        other = _as_tseries(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.order, other.order)
        return TSeries(_convolve(self._c, other._c, n + 1), n)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, TSeries([_one(self._c[0])], self.order))

    def inverse(self) -> "TSeries":
        """Multiplicative inverse up to the truncation order.

        The constant term must be +1 or -1 so that the inverse stays in Z[w];
        anything else raises NonUnitConstant.
        """
        return TSeries(_quotient((_one(self._c[0]),), self._c, self.order), self.order)

    def shift_down(self, k: int) -> "TSeries":
        """Divide by t^k, 0 <= k <= order; the k lowest coefficients must be exactly zero."""
        if not 0 <= k <= self.order:
            raise ValueError(f"cannot divide a series of order {self.order} by t^{k}")
        for i in range(k):
            if self._c[i]:
                raise InexactDivision(f"coefficient of t^{i} is {self._c[i]}, not 0")
        return TSeries(self._c[k:], self.order - k)

    def int_coeffs(self) -> list:
        """Coefficients as plain ints; requires every coefficient constant in w."""
        return _ints(self._c)

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and self._c == other._c

    def __hash__(self):
        return hash((self.order, self._c))

    def __str__(self):
        return "[" + "; ".join(str(c) for c in self._c) + f"] + O(t^{self.order + 1})"

    def __repr__(self):
        return f"TSeries({[_plain(c) for c in self._c]!r}, order={self.order})"


class _RowSeries(TSeries):
    """A series over Z[w] made row by row, its coefficients built on first read.

    rows() yields, afresh at each call, the coefficient list in w of t^n for
    n = 0..order (trailing zeros allowed).  stream() hands those rows to a
    caller that writes each one as it comes (the CLI), so that caller never
    holds the series; any read of the coefficients runs rows() once and keeps
    them as OmegaPolys, so every other caller, and every other method
    (shift_down among them), sees a plain TSeries.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows, order: int):
        self._rows, self.order = rows, order

    def __getattr__(self, name):
        # reached only while the slot _c is unset: the first read builds it
        if name != "_c":
            raise AttributeError(name)
        self._c = tuple(OmegaPoly(row) for row in self._rows())
        return self._c

    def stream(self):
        """The coefficient lists in w of t^0, ..., t^order, made afresh as they are read."""
        return self._rows()


def _as_tseries(x, order):
    if isinstance(x, TSeries):
        return x
    if isinstance(x, TPoly):
        return x.to_series(order)
    if isinstance(x, (int, OmegaPoly)):
        return TSeries([x], order)
    return NotImplemented


@dataclass(frozen=True)
class RationalGF:
    """Rational generating function num/den over Z[w][t] (or Z[t]).

    The denominator must have constant term +1 or -1 so the expansion stays
    in Z[w]; expand() raises NonUnitConstant otherwise.
    """

    num: TPoly
    den: TPoly

    def expand(self, order: int) -> TSeries:
        """Expand num/den to a truncated series; den*result reproduces num."""
        return TSeries(_quotient(self.num.coeffs, self.den.coeffs, order), order)
