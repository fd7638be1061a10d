"""Differential tests of the step-family engine against the path-count oracle.

The engine (schroder._series, _band_polys, _column, _grand, _banded)
builds the series, band polynomials, columns, grand columns and banded
generating functions of every step family from its exponents (a, b);
motzkin.grand_column_gf and schroder.central_delannoy_series are its grand
columns of the (1, 2) and (1, 1) families.  Here random family members are
checked against the dynamic-programming CountTable, which shares no code
with the engine, and against independent constructions: the quadratic
fixed-point recursion below (the engine's series before the linear
recurrence), the Riordan power mu^(j+1), the grand Motzkin series as a
series inverse times a power of t*mu, the central Delannoy numbers as
their closed sum, and the band polynomials of the three-term recursion
against their closed sum.  The inverse triangles, read off the band
polynomials, are checked against triangular inversion of the count
triangles and against their closed-form entries.  Every builder run at an
integer weight is checked against the symbolic builder evaluated at that
weight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathenum import schroder
from pathenum.algebra import (
    OP_ONE,
    OP_ZERO,
    InexactDivision,
    OmegaPoly,
    TPoly,
    TSeries,
    W,
    binom,
)
from pathenum.hankel import HankelSpec, det_fraction_free, hankel_matrix
from pathenum.matrices import TriMatrix
from pathenum.motzkin import (
    grand_column_gf,
    inverse_motzkin_entry,
    inverse_motzkin_matrix,
    banded_motzkin_gf,
    banded_motzkin_series,
    motzkin_column_gf,
    motzkin_matrix,
    motzkin_series,
)
from pathenum.oracle import BANDED, GRAND, CountTable, PathSpec, compressed_series
from pathenum.schroder import (
    _band_polys,
    _banded,
    _column,
    _grand,
    _series,
    banded_w_gf,
    banded_w_series,
    central_delannoy_series,
    delannoy_number,
    delannoy_poly,
    inverse_schroder_entry,
    inverse_schroder_matrix,
    schroder_matrix_compressed,
)
from conftest import eval_omega, truncate


def _fixed_point(a: int, b: int, order: int) -> TSeries:
    """mu = 1 + omega t^a mu + t^b mu^2 by the quadratic coefficient recursion.

    The engine's construction before the linear recurrence, kept as its
    independent cross-check.
    """
    m = [OP_ONE]
    for n in range(1, order + 1):
        acc = W * m[n - a] if n >= a else OP_ZERO
        for i in range(n - b + 1):
            acc = acc + m[i] * m[n - b - i]
        m.append(acc)
    return TSeries(m, order)


steps = st.integers(1, 4)
heights = st.integers(0, 4)
bands = st.integers(1, 8)
orders = st.integers(0, 25)

fuzz = settings(max_examples=50, deadline=None)


@fuzz
@given(w=steps, j=heights, order=orders)
def test_w_series_and_columns_match_quadrant_oracle(w, j, order):
    table = CountTable(PathSpec.quadrant(w), order)
    series = _series(w, 2, order)
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
    assert _series(1, 1, order) == compressed_series(0, order)
    column = _column(1, 1, j, order)
    oracle_column = compressed_series(j, order + j)
    assert list(column.coeffs) == [oracle_column.coeff(n + j) for n in range(order + 1)]
    assert _banded(1, 1, k).expand(order) == compressed_series(0, order, band=k)


@fuzz
@given(w=steps, k=bands, order=orders, omega=st.sampled_from([W, -2, 0, 1, 3]))
def test_banded_series_are_the_banded_gf_expansions(w, k, order, omega):
    # the series builders take the lift at W; the gf expands by the quotient
    assert banded_motzkin_series(k, order, omega) == banded_motzkin_gf(k, omega).expand(order)
    assert banded_w_series(k, w, order, omega) == banded_w_gf(k, w, omega).expand(order)


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


families = st.sampled_from([(1, 1)] + [(w, 2) for w in range(1, 5)])


def _oracle_columns(a, b, j, order):
    """Oracle counts at height 0 and at height j, in the engine's indexing."""
    if (a, b) == (1, 1):
        column = compressed_series(j, order + j)
        return compressed_series(0, order).coeffs, column.coeffs[j:]
    table = CountTable(PathSpec.quadrant(a), order)
    return (
        tuple(table.value(n, 0) for n in range(order + 1)),
        tuple(table.value(n, j) for n in range(order + 1)),
    )


@fuzz
@given(family=families, j=heights, order=st.integers(0, 40))
def test_recurrence_matches_fixed_point_and_oracle(family, j, order):
    a, b = family
    mu, reference = _series(a, b, order + j), _fixed_point(a, b, order + j)
    assert mu == reference
    family_polys = _band_polys(a, b, j)
    below = family_polys[j - 1] if j else TPoly(())
    by_fixed_point = (reference * family_polys[j] - below).shift_down(j)
    column = _column(a, b, j, order)
    assert column == by_fixed_point
    heights_0, heights_j = _oracle_columns(a, b, j, order)
    assert truncate(mu, order).coeffs == heights_0
    assert column.coeffs == heights_j


@fuzz
@given(j=heights, order=st.integers(0, 40))
def test_grand_columns_match_product_and_oracle(j, order):
    mu = _fixed_point(1, 2, order)
    g = TSeries([OP_ONE, -W] + [-2 * mu.coeff(n - 2) for n in range(2, order + 1)], order).inverse()
    tmu = TSeries((OP_ZERO,) + mu.coeffs[:order], order)
    column = grand_column_gf(j, order)
    assert column == g * tmu**j
    table = CountTable(PathSpec.grand(), order)
    assert list(column.coeffs) == [table.value(n, j) for n in range(order + 1)]


@fuzz
@given(
    family=st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 1)]),
    j=heights,
    order=st.integers(0, 14),
    omega=st.sampled_from([W] + list(range(-2, 4))),
)
def test_grand_engine_matches_grand_oracle(family, j, order, omega):
    # (w, 2): t^n counts the grand paths to (n, j); (1, 1), the compressed
    # w = 2 family: t^n counts the grand w = 2 paths to (2n + j, j)
    a, b = family
    w, stride, x0 = (2, 2, j) if b == 1 else (a, 1, 0)
    table = CountTable(PathSpec.grand(w), stride * order + j, omega)
    got = _grand(a, b, j, order, omega)
    assert list(got.coeffs) == [table.value(stride * n + x0, j) for n in range(order + 1)]
    if family == (1, 1) and not j:
        closed = [delannoy_number(n, n, omega) for n in range(order + 1)]
        assert list(central_delannoy_series(order, omega).coeffs) == closed


INVERSES = (
    (inverse_motzkin_matrix, motzkin_matrix, inverse_motzkin_entry),
    (inverse_schroder_matrix, schroder_matrix_compressed, inverse_schroder_entry),
)


@fuzz
@given(n=st.integers(1, 30), omega=st.sampled_from([W] + list(range(-3, 5))))
def test_inverse_triangles_match_inversion_and_closed_entries(n, omega):
    # The band-polynomial rows, forward substitution on the count triangle
    # and the closed-form entries are three independent constructions.
    size = min(n, 20) if omega is W else n
    for build, triangle, entry in INVERSES:
        got = build(size, omega)
        assert got == triangle(size, omega).inverse_unit_lower(), build.__name__
        closed = TriMatrix([[entry(i, j, omega) for j in range(i + 1)] for i in range(size)])
        assert got == closed, build.__name__


@pytest.mark.parametrize("omega", [W, 2])
@pytest.mark.parametrize("build", [inverse_motzkin_matrix, inverse_schroder_matrix])
def test_inverse_triangles_reject_dimension_zero(build, omega):
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        build(0, omega)


def test_planted_coefficient_raises_inexact_division(monkeypatch):
    # 2(n+b) mu_n is divided by 2(n+b) = 24 at n = 10 of the Motzkin family;
    # a +1 planted in that quotient must surface as a remainder downstream.
    real = schroder._div_exact

    def planted(a, k):
        q = real(a, k)
        return q + 1 if k == 24 else q

    assert _series(1, 2, 20) == _fixed_point(1, 2, 20)
    monkeypatch.setattr(schroder, "_div_exact", planted)
    with pytest.raises(InexactDivision):
        _series(1, 2, 20)


def test_planted_coefficient_raises_inexact_division_at_an_integer_weight(monkeypatch):
    # At the int weight 1 each coefficient of mu is an int, divided by
    # divmod; a +1 planted in the quotient by 2(n+b) = 24 (n = 10, Motzkin
    # family) must surface as a remainder of a later division.
    real = schroder._div_exact

    def planted(a, k):
        q = real(a, k)
        return q + 1 if k == 24 else q

    assert _series(1, 2, 20, 1) == eval_omega(_fixed_point(1, 2, 20), 1)
    monkeypatch.setattr(schroder, "_div_exact", planted)
    with pytest.raises(InexactDivision):
        _series(1, 2, 20, 1)


def _heights(spec, n):
    """Every height the table holds at x-coordinate n."""
    if spec.mode == GRAND:
        return range(-n, n + 1)
    return range(spec.band if spec.mode == BANDED else n + 1)


@fuzz
@given(
    family=st.sampled_from([(1, 2), (1, 1)] + [(w, 2) for w in range(2, 5)]),
    j=heights,
    k=bands,
    order=st.integers(0, 40),
    x=st.integers(-3, 4),
    n=st.integers(1, 10),
    # (shift, alpha, beta) of a Hankel matrix, as the CLI accepts them
    hankel=st.sampled_from([(0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 1, 1), (0, 2, -1), (0, 0, 1)]),
)
def test_builders_at_an_integer_weight_match_symbolic_builders(family, j, k, order, x, n, hankel):
    # Every builder is run at the int weight x and at W.  Each value at x
    # must equal the symbolic value evaluated at x, every scalar built at x
    # must be a plain int, and every scalar built at W an OmegaPoly.
    a, b = family
    w, size = a if b == 2 else 2, min(order, 20)
    shift, alpha, beta = hankel
    spec = HankelSpec(n, shift=shift, alpha=alpha, beta=beta)
    specs = (PathSpec.grand(w), PathSpec.quadrant(w), PathSpec.banded(k, w))
    built = {}
    for omega in (x, W):
        built[omega] = [
            _series(a, b, order, omega),
            _column(a, b, j, order, omega),
            _banded(a, b, k, omega).expand(order),
            grand_column_gf(j, order, omega),
            inverse_motzkin_matrix(n, omega),
            inverse_schroder_matrix(n, omega),
            hankel_matrix(spec, omega),
        ] + [CountTable(path_spec, size, omega) for path_spec in specs] + [
            motzkin_column_gf(j, order, omega),
            delannoy_poly(n, omega),
        ]
        kind = OmegaPoly if omega is W else int
        for value in built[omega]:
            assert all(type(c) is kind for c in _scalars(value)), (omega, value)
    at_x, symbolic = built[x], built[W]
    for got, want in zip(at_x[:6], symbolic[:6]):
        assert got == eval_omega(want, x)
    for path_spec, table, table_w in zip(specs, at_x[7:], symbolic[7:]):
        for m in range(size + 1):
            for y in _heights(path_spec, m):
                assert table.value(m, y) == table_w.value(m, y).evaluate(x), (path_spec, m, y)
    det = det_fraction_free(at_x[6])
    assert type(det) is int
    assert det == det_fraction_free(symbolic[6]).evaluate(x)
    for got, want in zip(at_x[10:], symbolic[10:]):
        assert got == eval_omega(want, x)


def _scalars(value):
    """Every scalar a built value holds."""
    if isinstance(value, CountTable):
        return [c for col in value._cols for c in col]
    if isinstance(value, TriMatrix):
        return [c for row in value.rows for c in row]
    if isinstance(value, tuple):  # the rows of a square matrix
        return [c for row in value for c in row]
    return value.coeffs
