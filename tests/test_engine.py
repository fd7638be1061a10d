"""Differential tests of the step-family engine against the path-count oracle.

The engine (schroder._fixed_point, _band_polys, _column, _banded) builds the
series, band polynomials, column and banded generating functions of every
step family from its exponents (a, b).  Here random family members are
checked against the dynamic-programming CountTable, which shares no code
with the engine, the Motzkin column against the Riordan power mu^(j+1), and
the band polynomials of the three-term recursion against their closed sum.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pathenum.algebra import OP_ONE, TPoly, W, binom
from pathenum.motzkin import motzkin_column_gf, motzkin_series
from pathenum.oracle import CountTable, PathSpec, compressed_series
from pathenum.schroder import _band_polys, _banded, _column, _fixed_point

steps = st.integers(1, 4)
heights = st.integers(0, 4)
bands = st.integers(1, 8)
orders = st.integers(0, 25)

fuzz = settings(max_examples=50, deadline=None)


@fuzz
@given(w=steps, j=heights, order=orders)
def test_w_series_and_columns_match_quadrant_oracle(w, j, order):
    table = CountTable(PathSpec.quadrant(w), order)
    series = _fixed_point(w, 2, order)
    column = _column(w, 2, j, order)
    assert list(series.coeffs) == [table.value(n, 0) for n in range(order + 1)]
    assert list(column.coeffs) == [table.value(n, j) for n in range(order + 1)]


@fuzz
@given(w=steps, k=bands, order=orders)
def test_w_banded_matches_banded_oracle(w, k, order):
    table = CountTable(PathSpec.banded(k, w), order)
    got = _banded(w, 2, k).expand(order)
    assert list(got.coeffs) == [table.value(n, 0) for n in range(order + 1)]


@fuzz
@given(j=heights, k=bands, order=orders)
def test_compressed_engine_matches_compressed_oracle(j, k, order):
    assert _fixed_point(1, 1, order) == compressed_series(0, order)
    column = _column(1, 1, j, order)
    oracle_column = compressed_series(j, order + j)
    assert list(column.coeffs) == [oracle_column.coeff(n + j) for n in range(order + 1)]
    assert _banded(1, 1, k).expand(order) == compressed_series(0, order, band=k)


@fuzz
@given(j=heights, order=orders)
def test_motzkin_column_is_riordan_power(j, order):
    column = motzkin_column_gf(j, order)
    assert column == motzkin_series(order) ** (j + 1)
    table = CountTable(PathSpec.quadrant(), order + j)
    assert list(column.coeffs) == [table.value(n + j, j) for n in range(order + 1)]


@fuzz
@given(a=steps, b=st.integers(1, 2), n=st.integers(0, 10))
def test_band_polynomials_match_closed_sum(a, b, n):
    # P_m = sum_j C(m-j, j) (-1)^j t^(b j) (1 - omega t^a)^(m-2j)
    base = TPoly([OP_ONE] + [0] * (a - 1) + [-W])
    family = _band_polys(a, b, n)
    assert len(family) == n + 1
    for m, got in enumerate(family):
        want = TPoly(())
        for j in range(m // 2 + 1):
            want = want + (base ** (m - 2 * j)).shift(b * j) * ((-1) ** j * binom(m - j, j))
        assert got == want, m
