"""The brute-force counter against the printed tables and its own invariants."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathenum import algebra
from pathenum.algebra import OP_ONE, OP_ZERO, OmegaPoly, W
from pathenum.oracle import (
    BandViolation,
    CountTable,
    PathSpec,
    compressed_series,
    count_paths,
    oracle_series,
)
from conftest import count_table_rec, eval_omega


SCHRODER = PathSpec.quadrant(w=2)


def nonneg_coeffs(p: OmegaPoly) -> bool:
    return all(c >= 0 for c in p.coeffs)


def assert_is_the_recursion(spec: PathSpec, n_max: int):
    """Every cell of the table at W equals the step recursion of count_table_rec."""
    table = CountTable(spec, n_max)
    for (x, y), want in count_table_rec(spec, n_max).items():
        assert table.value(x, y) == want, (x, y)


class TestCountPaths:
    def test_grand_table_entry(self):
        assert count_paths(PathSpec.grand(), 3, 1) == OmegaPoly([3, 0, 3])

    def test_quadrant_table_entry(self):
        assert count_paths(PathSpec.quadrant(), 3, 1) == OmegaPoly([2, 0, 3])

    def test_banded_two_gives_powers_of_two(self):
        assert count_paths(PathSpec.banded(2), 4, 0).evaluate(1) == 8

    def test_band_violation(self):
        with pytest.raises(BandViolation):
            count_paths(PathSpec.banded(3), 5, 3)
        with pytest.raises(BandViolation):
            count_paths(PathSpec.banded(3), 5, -1)

    def test_quadrant_below_axis_is_zero(self):
        assert count_paths(PathSpec.quadrant(), 5, -2) == OP_ZERO

    def test_origin(self):
        for spec in (PathSpec.grand(), PathSpec.quadrant(), PathSpec.banded(2)):
            assert count_paths(spec, 0, 0) == OP_ONE


class TestOracleSeries:
    def test_weight_one_motzkin_prefix(self):
        s = oracle_series(PathSpec.quadrant(), 0, 7)
        assert eval_omega(s, 1).int_coeffs() == [1, 1, 2, 4, 9, 21, 51, 127]

    def test_w3_ninth_coefficient(self):
        s = oracle_series(PathSpec.quadrant(w=3), 0, 9)
        assert s.coeff(9) == OmegaPoly([0, 35, 0, 1])

    def test_grand_constant_term(self):
        for w in (1, 2, 3):
            for j in (-2, 0, 3):
                s = oracle_series(PathSpec.grand(w), j, 4)
                assert s.coeff(0) == (OP_ONE if j == 0 else OP_ZERO)


class TestCompressSchroder:
    """Entry (n, j) of the compressed triangle: the w=2 quadrant count at (2n - j, j)."""

    def test_corner_value(self):
        assert count_paths(SCHRODER, 8, 0).evaluate(1) == 90

    def test_diagonal_is_one(self):
        for n in range(8):
            assert count_paths(SCHRODER, n, n) == OP_ONE

    def test_row_three(self):
        assert [count_paths(SCHRODER, 6 - j, j).evaluate(1) for j in range(4)] == [22, 16, 6, 1]

    def test_low_entries_symbolic(self):
        # compressed column 0 is S(2n, 0): 1, 1+w, 2+3w+w^2, ...
        assert count_paths(SCHRODER, 2, 0) == 1 + W
        assert count_paths(SCHRODER, 4, 0) == OmegaPoly([2, 3, 1])

    def test_compressed_series_matches_entries(self):
        s = compressed_series(1, 6)
        for n in range(1, 7):
            assert s.coeff(n) == count_paths(SCHRODER, 2 * n - 1, 1)


class TestInvariants:
    def test_grand_mirror_symmetry(self):
        table = CountTable(PathSpec.grand(), 30)
        for n in range(31):
            for j in range(n + 1):
                assert table.value(n, j) == table.value(n, -j), (n, j)

    def test_quadrant_delta_above_diagonal(self):
        table = CountTable(PathSpec.quadrant(), 12)
        for i in range(13):
            for j in range(i, 13):
                want = OP_ONE if i == j else OP_ZERO
                assert table.value(i, j) == want

    def test_banded_below_quadrant_coefficientwise(self):
        quad = CountTable(PathSpec.quadrant(), 20)
        for k in (1, 2, 4):
            band = CountTable(PathSpec.banded(k), 20)
            for n in range(21):
                for j in range(k):
                    assert nonneg_coeffs(quad.value(n, j) - band.value(n, j)), (k, n, j)

    def test_banded_monotone_in_k(self):
        for k in (1, 2, 3, 5):
            small = CountTable(PathSpec.banded(k), 18)
            large = CountTable(PathSpec.banded(k + 1), 18)
            for n in range(19):
                for j in range(k):
                    assert nonneg_coeffs(large.value(n, j) - small.value(n, j))

    def test_w2_parity_zeros(self):
        table = CountTable(PathSpec.quadrant(w=2), 12)
        for n in range(13):
            for j in range(13):
                if (n - j) % 2:
                    assert table.value(n, j) == OP_ZERO

    @pytest.mark.parametrize(
        "spec",
        [PathSpec.grand(), PathSpec.quadrant(), PathSpec.banded(3),
         PathSpec.quadrant(w=2), PathSpec.grand(w=3), PathSpec.banded(4, w=2)],
        ids=str,
    )
    def test_tables_obey_their_recursion(self, spec):
        assert_is_the_recursion(spec, 14)


@pytest.mark.parametrize("mode", ["grand", "quadrant", "banded"])
@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_symbolic_table_at_x_is_the_int_table(mode, w):
    # the cells at W, evaluated at x, against the table counted at x, cell by
    # cell; band height 1 has one cell a column, and with n < w every column
    # past 0 reads the zero column as its horizontal term
    specs = [PathSpec(w, mode)] if mode != "banded" else [PathSpec.banded(k, w) for k in (3, 1)]
    for spec, n in [(spec, n) for spec in specs for n in (12, w - 1)]:
        symbolic = CountTable(spec, n)
        lo, hi = (-n, n) if mode == "grand" else (0, spec.band - 1 if mode == "banded" else n)
        for x in (-2, 0, 1, 3):
            table = CountTable(spec, n, x)
            for m in range(n + 1):
                for j in range(lo, hi + 1):
                    want = symbolic.value(m, j).evaluate(x)
                    assert table.value(m, j) == want, (spec, n, x, m, j)
                    assert type(table.value(m, j)) is int


@pytest.mark.parametrize("omega", [W, 2], ids=["W", "x=2"])
@pytest.mark.parametrize("spec", [PathSpec.grand(), PathSpec.quadrant(w=2)], ids=str)
def test_a_cell_outside_the_height_window_is_the_weights_zero(spec, omega):
    # no path of length n reaches height n + 1, nor, in the quadrant, height -1
    table = CountTable(spec, 4, omega)
    heights = [-5, 5] if spec.mode == "grand" else [-1, 5]
    for n in range(5):
        for j in [*heights, n + 1]:
            cell = table.value(n, j)
            assert cell == 0, (n, j)
            assert type(cell) is (OmegaPoly if omega is W else int)


# every cell of a table at W against the step recursion in OmegaPoly
# arithmetic; n_max runs past 40, where the largest coefficients pass 64 bits
# (3^40 < 2^64 < 3^41)
@given(mode=st.sampled_from(["grand", "quadrant", "banded"]), w=st.integers(1, 3),
       k=st.integers(1, 6), n_max=st.integers(0, 45))
@example(mode="grand", w=1, k=1, n_max=40)
@example(mode="grand", w=1, k=1, n_max=41)
@example(mode="quadrant", w=2, k=1, n_max=45)
@example(mode="banded", w=3, k=1, n_max=0)
@settings(max_examples=40, deadline=None)
def test_symbolic_table_is_the_z_w_recursion(mode, w, k, n_max):
    spec = PathSpec.banded(k, w) if mode == "banded" else PathSpec(w, mode)
    assert_is_the_recursion(spec, n_max)


@pytest.mark.parametrize("n_max", [40, 41])
@pytest.mark.parametrize(
    "spec", [PathSpec.grand(), PathSpec.quadrant(w=2), PathSpec.banded(5, w=3)], ids=str
)
def test_symbolic_table_obeys_its_recursion_past_64_bit_coefficients(spec, n_max):
    assert_is_the_recursion(spec, n_max)


def test_symbolic_table_makes_no_vdot_call_and_holds_omegapolys(monkeypatch):
    calls = []
    vdot = algebra.vdot
    monkeypatch.setattr(algebra, "vdot", lambda pairs: calls.append(1) or vdot(pairs))
    algebra._sum_products([(W, W)])  # the wrapper sees a fused sum
    assert calls == [1]
    calls.clear()
    for spec, lo, hi in ((PathSpec.grand(2), -15, 15), (PathSpec.quadrant(), 0, 15),
                         (PathSpec.banded(4, 3), 0, 3)):
        table = CountTable(spec, 15)
        for n in range(16):
            for j in range(lo, hi + 1):
                assert type(table.value(n, j)) is OmegaPoly, (spec, n, j)
    assert calls == []


def test_check_results_carry_counterexamples():
    from pathenum.checks import PASS, fail

    r = fail("(n=3, j=1)", 5, 7)
    assert not r
    assert "(n=3, j=1)" in r.detail
    assert "lhs=5" in r.detail and "rhs=7" in r.detail
    assert PASS and PASS.detail == ""
