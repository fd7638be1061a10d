"""Input guards of the library, and the failure detail of each identity check.

A check reports its first counterexample as `first mismatch at <index>:
lhs=<value>, rhs=<value>`; each planted wrong value below must be named
with its index and both values.
"""

from fractions import Fraction

import pytest

from pathenum import discrepancies, hankel, kernels, motzkin, oracle, schroder
from pathenum.algebra import (
    OP_ONE, OP_ZERO, W, InexactDivision, OmegaPoly, RationalGF, TPoly, TSeries,
)
from pathenum.checks import CheckResult
from pathenum.hankel import HankelSpec, det_fraction_free, hankel_det
from pathenum.matrices import TriMatrix
from pathenum.oracle import CountTable, PathSpec
from conftest import banded_schroder_gf_via_s, truncate

GUARDS = [
    # motzkin
    (lambda: motzkin.motzkin_column_gf(-1, 5), ValueError, "height must be nonnegative"),
    (lambda: motzkin.grand_column_gf(-1, 5), ValueError, "height must be nonnegative"),
    (lambda: motzkin.inverse_motzkin_poly(-1), ValueError, "index must be nonnegative"),
    (lambda: motzkin.banded_motzkin_gf(0), ValueError, "band height must be >= 1"),
    (lambda: motzkin.verify_lemma(-1), ValueError, "bound must be nonnegative"),
    (lambda: motzkin.banded_motzkin_recursion_check(0, 5), ValueError, "band height must be >= 1"),
    (lambda: motzkin.motzkin_matrix(0), ValueError, "dimension must be >= 1"),
    # schroder
    (lambda: schroder.w_series(0, 5), ValueError, "horizontal step length must be positive"),
    (lambda: schroder.w_p_poly(-1, 2), ValueError, "index must be nonnegative"),
    (lambda: schroder.compressed_p_poly(-1), ValueError, "index must be nonnegative"),
    (lambda: schroder.w_column_gf(-1, 2, 5), ValueError, "height must be nonnegative"),
    (lambda: schroder.compressed_column_gf(-1, 5), ValueError, "height must be nonnegative"),
    (lambda: schroder.banded_w_gf(0, 2), ValueError, "band height must be >= 1"),
    (lambda: schroder.banded_schroder_series(0, 5), ValueError, "band height must be >= 1"),
    (lambda: schroder.inverse_schroder_poly(-1), ValueError, "index must be nonnegative"),
    (lambda: schroder.inverse_schroder_column_gf(-1, 5), ValueError, "column must be nonnegative"),
    (lambda: schroder.delannoy_number(-1, 0), ValueError, "indices must be nonnegative"),
    (lambda: schroder.central_delannoy_series(-1), ValueError, "order must be nonnegative"),
    (lambda: schroder.delannoy_poly(-1), ValueError, "index must be nonnegative"),
    (lambda: schroder.banded_schroder_gf(0), ValueError, "band height must be >= 1"),
    (lambda: banded_schroder_gf_via_s(0), ValueError, "band height must be >= 1"),
    (lambda: schroder.delannoy_recursion_check(0), ValueError, "horizon must be >= 1"),
    (lambda: schroder.theorem_schroeder_check(2, -1, schroder.band_times_s(2, 0)), ValueError,
     "order must be nonnegative"),
    # oracle
    (lambda: PathSpec(0, "quadrant"), ValueError, "horizontal step length must be positive"),
    (lambda: PathSpec(1, "diagonal"), ValueError, "unknown mode 'diagonal'"),
    (lambda: PathSpec(1, "banded", 0), ValueError, "band height must be positive"),
    (lambda: CountTable(PathSpec.quadrant(), 3).value(4, 0), IndexError, "outside table range"),
    (lambda: oracle.count_paths(PathSpec.quadrant(), -1, 0), ValueError,
     "path length must be nonnegative"),
    (lambda: oracle.oracle_series(PathSpec.quadrant(), 0, -1), ValueError,
     "order must be nonnegative"),
    (lambda: oracle.compressed_series(-1, 3), ValueError, "height must be nonnegative"),
    # hankel
    (lambda: hankel.shifted_hankel_closed(-1, 1, 0), ValueError, "dimension must be nonnegative"),
    (lambda: hankel.second_hankel_closed(-1), ValueError, "dimension must be nonnegative"),
    (lambda: hankel.shifted_hankel_binomial(-1, 1, 0), ValueError,
     "dimension must be nonnegative"),
    (lambda: hankel.hankel_recursion_check(0), ValueError, "dimension must be >= 1"),
    (lambda: det_fraction_free([[1, 2]]), ValueError, "matrix must be square"),
    # ragged rows; the anchored pattern gives this case a test id of its own
    (lambda: det_fraction_free([[1, 2], [3]]), ValueError, "^matrix must be square$"),
    (lambda: det_fraction_free([[1, Fraction(1, 2)], [0, 1]]), TypeError,
     "Fraction is not a scalar"),
    (lambda: hankel.hankel_det(HankelSpec(3), OmegaPoly([3])), ValueError,
     "is neither W nor an int"),
    # matrices
    (lambda: TriMatrix([[1, 2]]), ValueError, "row 0 must have 1 entries, got 2"),
    (lambda: TriMatrix([[2]]).inverse_unit_lower(), ValueError,
     r"diagonal entry \(0,0\) is not 1"),
    # a weight is W or an int, in every builder
    (lambda: motzkin.motzkin_series(3, OmegaPoly([3])), ValueError, "is neither W nor an int"),
    (lambda: motzkin.inverse_motzkin_matrix(3, OmegaPoly([1, 1])), ValueError,
     "is neither W nor an int"),
    (lambda: CountTable(PathSpec.quadrant(), 3, OmegaPoly([3])), ValueError,
     "is neither W nor an int"),
    (lambda: schroder.central_delannoy_series(3, OmegaPoly([3])), ValueError,
     "is neither W nor an int"),
    # a table of negative size
    (lambda: CountTable(PathSpec.quadrant(), -1), ValueError, "table size must be >= 0"),
    (lambda: oracle.compressed_series(0, -1), ValueError, "table size must be >= 0"),
    (lambda: motzkin.banded_motzkin_recursion_check(2, -1), ValueError, "table size must be >= 0"),
    # algebra and kernels
    (lambda: TSeries([W]).int_coeffs(), ValueError, "still depends on w"),
    (lambda: TSeries([1], -1), ValueError, "truncation order must be >= 0"),
    # truncate is a conftest helper
    (lambda: truncate(TSeries([1, 2]), 3), ValueError, "cannot extend a truncated series"),
    (lambda: TSeries([1, 1]).shift_down(1), InexactDivision, r"coefficient of t\^0 is 1, not 0"),
    (lambda: TSeries([0, 0]).shift_down(3), ValueError,
     r"cannot divide a series of order 1 by t\^3"),
    (lambda: kernels.vdivexact_int([1], 0), ZeroDivisionError, "division by zero"),
    # the w-path builders, like w_series, take no step length below 1 (a step
    # 1 - omega t^a with a <= 0 would be read as a = 1), and band_times_s no
    # negative order; listed last, so that the ids above keep their numbers
    (lambda: schroder.w_p_poly(3, 0), ValueError, "horizontal step length must be positive"),
    (lambda: schroder.w_p_poly(3, -4), ValueError, "horizontal step length must be positive"),
    (lambda: schroder.w_column_gf(1, 0, 4), ValueError, "horizontal step length must be positive"),
    (lambda: schroder.w_column_gf(1, -1, 4), ValueError,
     "horizontal step length must be positive"),
    (lambda: schroder.banded_w_gf(3, 0), ValueError, "horizontal step length must be positive"),
    (lambda: schroder.band_times_s(2, -1), ValueError, "order must be nonnegative"),
    # the step-family engine checks its own parameters, for every caller
    (lambda: schroder._series(0, 2, 4), ValueError, "horizontal step length must be positive"),
    (lambda: schroder._band_polys(0, 2, 3), ValueError, "horizontal step length must be positive"),
    (lambda: schroder._band_polys(1, 2, -1), ValueError, "index must be nonnegative"),
    (lambda: schroder._column(1, 2, -1, 4), ValueError, "height must be nonnegative"),
    (lambda: schroder._column(1, 1, 2, -1, 1), ValueError, "order must be nonnegative"),
    (lambda: schroder._banded(1, 2, 0), ValueError, "band height must be >= 1"),
    (lambda: schroder._banded_series(1, 2, 0, 4, 1), ValueError, "band height must be >= 1"),
    # a HankelSpec holds only what the determinant can use
    (lambda: HankelSpec(3, alpha=1.5), ValueError, "alpha must be an int or an OmegaPoly, got 1.5"),
    (lambda: HankelSpec(3, beta="x"), ValueError, "beta must be an int or an OmegaPoly, got 'x'"),
    (lambda: HankelSpec(2.5), ValueError, "dimension must be an int, got 2.5"),
    (lambda: HankelSpec(2, shift=1.0), ValueError, "shift must be 0, 1 or 2"),
    # a negative order is named before any work, at W and at an int weight
    (lambda: motzkin.motzkin_column_gf(1, -1), ValueError, "order must be nonnegative"),
    (lambda: motzkin.grand_column_gf(1, -1), ValueError, "order must be nonnegative"),
    (lambda: motzkin.grand_column_gf(1, -1, 2), ValueError, "order must be nonnegative"),
    # a PathSpec holds only ints, so count_paths never meets a float in the table
    (lambda: PathSpec(1.5, "quadrant"), ValueError, "horizontal step length must be an int, got 1.5"),
    (lambda: PathSpec.banded(2.5), ValueError, "band height must be an int, got 2.5"),
    (lambda: PathSpec.grand("2"), ValueError, "horizontal step length must be an int, got '2'"),
    (lambda: oracle.count_paths(PathSpec.quadrant(2.0), 4, 0), ValueError,
     "horizontal step length must be an int, got 2.0"),
    # the step-family engine rejects a step length that is not an int, in PathSpec's words
    (lambda: schroder.w_series(1.5, 4), ValueError, "horizontal step length must be an int, got 1.5"),
    (lambda: schroder.w_p_poly(3, 1.5), ValueError, "horizontal step length must be an int, got 1.5"),
    (lambda: schroder.banded_w_gf(2, 1.5), ValueError, "horizontal step length must be an int, got 1.5"),
    # TPoly.shift takes no negative power of t, as TSeries.shift_down takes none
    (lambda: TPoly([1, 2]).shift(-1), ValueError, r"cannot multiply a polynomial by t\^-1"),
    (lambda: TPoly(()).shift(-2), ValueError, r"cannot multiply a polynomial by t\^-2"),
    # the grand engine checks its parameters as _series and _column do, at W and at an int weight
    (lambda: schroder._grand(1.5, 2, 0, 4), ValueError,
     "horizontal step length must be an int, got 1.5"),
    (lambda: schroder._grand(0, 2, 1, 4, 3), ValueError, "horizontal step length must be positive"),
    (lambda: schroder._grand(1, 1, -1, 4), ValueError, "height must be nonnegative"),
    (lambda: schroder._grand(2, 2, 1, -1, 1), ValueError, "order must be nonnegative"),
    # PathSpec checks the step length before the band
    (lambda: PathSpec(0, "banded", 1.5), ValueError, "horizontal step length must be positive"),
]


@pytest.mark.parametrize("call, exc, message", GUARDS)
def test_input_guard_raises(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


def assert_fails(result: CheckResult, where, lhs, rhs):
    assert not result
    assert result.detail == f"first mismatch at {where}: lhs={lhs}, rhs={rhs}"


def plant(monkeypatch, module, name, bad, corrupt):
    """Replace module.name by a wrapper that corrupts its value at the arguments bad."""
    real = getattr(module, name)

    def planted(*args):
        value = real(*args)
        return corrupt(value) if args == bad else value

    monkeypatch.setattr(module, name, planted)


def test_lemma_names_a_wrong_inverse_expansion(monkeypatch):
    # m[3,3] is read only by the inverse expansion of row 2, first at j = 0,
    # where it multiplies M_2
    bound = 2
    plant(monkeypatch, motzkin, "inverse_motzkin_entry", (3, 3), lambda v: v + 1)
    m20 = motzkin.inverse_motzkin_entry(2, 0)
    mu2 = motzkin.motzkin_series(2).coeff(2)
    assert_fails(motzkin.verify_lemma(bound), "inverse expansion at (i=2, j=0)", m20, m20 + mu2)


def test_orthogonality_names_a_wrong_entry(monkeypatch):
    # sum_k m[1,k] M_k = -w + w = 0; with m[1,0] one larger it is 1
    plant(monkeypatch, motzkin, "inverse_motzkin_entry", (1, 0), lambda v: v + 1)
    assert_fails(motzkin.verify_orthogonality(3), "(i=0, j=1)", OP_ONE, OP_ZERO)


def planted_table(at):
    """CountTable, but with the count at (at, 0) one too large."""

    class Planted(CountTable):
        def value(self, n, j):
            v = super().value(n, j)
            return v + 1 if (n, j) == (at, 0) else v

    return Planted


@pytest.mark.parametrize(
    "plant_at, where, lhs, rhs",
    [
        # m[k,k] = 1 multiplies the planted count; at n = 0 the sum is M^(k)_0 = 1 = m[k-1,k-1]
        (0, "initial value n=0 (k=3)", 2 * OP_ONE, OP_ONE),
        (7, "recursion at n=7 (k=3)", OP_ONE, OP_ZERO),
    ],
)
def test_banded_recursion_names_a_wrong_count(plant_at, where, lhs, rhs, monkeypatch):
    monkeypatch.setattr(motzkin, "CountTable", planted_table(plant_at))
    assert_fails(motzkin.banded_motzkin_recursion_check(3, 7), where, lhs, rhs)


def test_first_return_names_a_wrong_term(monkeypatch):
    # M_(n+2) is read only on the left side, at n
    horizon = 4
    real = motzkin.motzkin_series(horizon + 2)
    coeffs = list(real.coeffs)
    coeffs[horizon + 2] = coeffs[horizon + 2] + 1
    monkeypatch.setattr(motzkin, "motzkin_series", lambda order: TSeries(coeffs, order))
    lhs = real.coeff(horizon + 2) - W * real.coeff(horizon + 1)
    assert_fails(motzkin.first_return_check(horizon), f"n={horizon}", lhs + 1, lhs)


def test_hankel_recursion_names_a_wrong_determinant(monkeypatch):
    # one more in the corner of the shift-2 matrix moves only its full determinant
    n = 3
    real = hankel.hankel_matrix

    def planted(spec, omega=W):
        m = real(spec, omega)
        if spec.shift != 2:
            return m
        rows = [list(r) for r in m]
        rows[-1][-1] = rows[-1][-1] + 1
        return rows

    monkeypatch.setattr(hankel, "hankel_matrix", planted)
    lhs = det_fraction_free(planted(HankelSpec(n, shift=2)))
    second = hankel_det(HankelSpec(n, shift=1))
    rhs = hankel_det(HankelSpec(n - 1, shift=2)) + second * second
    assert lhs != rhs
    assert_fails(hankel.hankel_recursion_check(n), f"dimension {n}", lhs, rhs)



def test_lemma_names_a_wrong_count(monkeypatch):
    # the count to (2, 0) is first read by the count expansion at (i=2, j=0),
    # whose right side is m[0,0] M_2 = M_2
    monkeypatch.setattr(motzkin, "CountTable", planted_table(2))
    m2 = motzkin.motzkin_series(2).coeff(2)
    assert_fails(motzkin.verify_lemma(2), "count expansion at (i=2, j=0)", m2 + 1, m2)


def test_delannoy_recursion_names_a_wrong_number(monkeypatch):
    # D(2, 2) is first read as the left side at (n=2, j=0)
    d = schroder.delannoy_number
    rhs = W * d(1, 1) + d(2, 1) + d(1, 2)
    plant(monkeypatch, schroder, "delannoy_number", (2, 2), lambda v: v + 1)
    assert_fails(schroder.delannoy_recursion_check(2), "(n=2, j=0)", d(2, 2) + 1, rhs)


def _bridge_cases():
    d = schroder._d_neg_at1
    s1, s2 = (schroder.inverse_schroder_poly(n, 1) for n in (1, 2))
    p2 = schroder._band_polys(1, 1, 3, 1)[2]
    one = TPoly([1])
    return [
        # s_2 is read first by the quotient identity at n = 2, as the product (1 - t) s_2
        ("inverse_schroder_poly", (2, 1), lambda v: v + 1, "quotient identity at n=2",
         schroder.ONE_MINUS_T * (s2 + 1), d(1).shift(2) + d(3)),
        # d_1 enters the quotient identity first at n = 0, which is not checked
        ("_d_neg_at1", (1,), lambda v: v + 1, "difference identity at n=1",
         s1, d(1) + 1 - d(0).shift(1)),
        # the band polynomials are read only by the bridge itself
        ("_band_polys", (1, 1, 3, 1), lambda ps: ps[:2] + [ps[2] + 1] + ps[3:],
         "band-polynomial bridge at n=2", p2 + 1, d(2)),
        # d_(-1) = 0 is read only by the three-term recursion at n = 1
        ("_d_neg_at1", (-1,), lambda v: v + 1, "three-term recursion at n=1",
         d(0), d(0).shift(1) + one.shift(1) + d(1)),
    ]


@pytest.mark.parametrize("case", range(4))
def test_bridge_names_each_identity(case, monkeypatch):
    name, bad, corrupt, where, lhs, rhs = _bridge_cases()[case]
    plant(monkeypatch, schroder, name, bad, corrupt)
    assert_fails(schroder.delannoy_s_bridge_check(3), where, lhs, rhs)


def test_gould_names_a_wrong_binomial(monkeypatch):
    # C(1/2, 1) = 1/2 enters the left side of (k=2, m=1) times C(3, 1) = 3: 6 -> 9
    plant(monkeypatch, schroder, "binom_general", (Fraction(1, 2), 1), lambda v: v + 1)
    assert_fails(schroder.gould_identity_check(2, 1), "(k=2, m=1)", 9, 6)


def planted_count(cell):
    """CountTable, but with the count at cell = (n, j) one too large."""

    class Planted(CountTable):
        def value(self, n, j):
            v = super().value(n, j)
            return v + 1 if (n, j) == cell else v

    return Planted


@pytest.mark.parametrize(
    "cell, where, bump",
    [((5, -2), "(5,-2)", (1, 0)), ((5, 2), "mirror (5,2)", (0, 1))],
)
def test_grand_mirror_names_a_wrong_count(cell, where, bump, monkeypatch):
    resolved = OmegaPoly([0, 20, 0, 10])
    monkeypatch.setattr(discrepancies, "CountTable", planted_count(cell))
    result = discrepancies._check_grand_mirror()
    assert_fails(result, where, resolved + bump[0], resolved + bump[1])


def test_banded4_tail_names_a_wrong_oracle_count(monkeypatch):
    plant(monkeypatch, discrepancies, "oracle_series", (PathSpec.banded(4), 0, 9, 1),
          lambda s: s + TPoly([1]).shift(8))
    assert_fails(discrepancies._check_banded4_tail(), "oracle n=8,9", [323, 826], [322, 826])


def test_banded4_tail_names_a_wrong_generating_function(monkeypatch):
    def corrupt(gf):
        return RationalGF(gf.num + TPoly([1]).shift(8), gf.den)

    got = corrupt(motzkin.banded_motzkin_gf(4, 1)).expand(9).int_coeffs()[8:10]
    plant(monkeypatch, discrepancies, "banded_motzkin_gf", (4, 1), corrupt)
    result = discrepancies._check_banded4_tail()
    assert_fails(result, "generating function n=8,9", got, [322, 826])


def test_inverse_column_gf_names_a_wrong_column(monkeypatch):
    want = schroder.inverse_schroder_column_gf(2, 8).int_coeffs()
    plant(monkeypatch, discrepancies, "inverse_schroder_column_gf", (2, 8), lambda s: s + 1)
    result = discrepancies._check_inverse_column_gf()
    assert_fails(result, "validated form, column 2", [want[0] + 1] + want[1:], want)


def test_aerated_hankel_delta_names_a_wrong_determinant(monkeypatch):
    # the dimension-4 determinant is -1 in the period-6 pattern
    real = discrepancies.det_fraction_free
    monkeypatch.setattr(discrepancies, "det_fraction_free", lambda m: real(m) + (len(m) == 4))
    assert_fails(discrepancies._check_aerated_hankel_delta(), "dimension 4", 0, -1)
