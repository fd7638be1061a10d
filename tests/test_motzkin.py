"""Motzkin series, triangles, the inverse three ways, and banded counts."""

import pytest

from pathenum.algebra import (
    OP_ONE,
    OP_ZERO,
    OmegaPoly,
    TPoly,
    TSeries,
    W,
    binom,
)
from pathenum.motzkin import (
    banded_motzkin_gf,
    banded_motzkin_recursion_check,
    first_return_check,
    grand_column_gf,
    grand_matrix,
    grand_motzkin_series,
    inverse_motzkin_entry,
    inverse_motzkin_matrix,
    inverse_motzkin_poly,
    motzkin_column_gf,
    motzkin_matrix,
    motzkin_series,
    verify_lemma,
    verify_orthogonality,
)
from pathenum.oracle import CountTable, IndexOutOfTriangle, PathSpec, oracle_series
from conftest import as_int_rows, eval_omega, identity, inverse_motzkin_entry_rec, truncate


def catalan(n: int) -> int:
    """Catalan number C_n."""
    return binom(2 * n, n) // (n + 1)


def motzkin_closed(n: int) -> OmegaPoly:
    """M_n by the explicit binomial-Catalan sum (coefficient of w^(n-2k))."""
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = binom(n, 2 * k) * catalan(k)
    return OmegaPoly(coeffs)


def motzkin_from_catalan(n: int) -> int:
    """Weight-1 Motzkin number as the alternating binomial transform of C_{k+1}."""
    return sum(binom(n, k) * (-1) ** (n - k) * catalan(k + 1) for k in range(n + 1))

MU_ROW = [
    OmegaPoly([1]),
    W,
    OmegaPoly([1, 0, 1]),
    OmegaPoly([0, 3, 0, 1]),
    OmegaPoly([2, 0, 6, 0, 1]),
    OmegaPoly([0, 10, 0, 10, 0, 1]),
]


class TestMotzkinSeries:
    def test_symbolic_prefix(self):
        mu = motzkin_series(5)
        assert list(mu.coeffs) == MU_ROW

    def test_weight_zero_gives_aerated_catalan(self):
        mu = eval_omega(motzkin_series(8), 0).int_coeffs()
        assert mu == [1, 0, 1, 0, 2, 0, 5, 0, 14]
        assert mu[::2] == [catalan(n) for n in range(5)]

    def test_weight_two_gives_shifted_catalan(self):
        mu = eval_omega(motzkin_series(4), 2).int_coeffs()
        assert mu == [1, 2, 5, 14, 42]
        assert mu == [catalan(n + 1) for n in range(5)]

    def test_quadratic_fixed_point(self):
        # mu = 1 + w*(t*mu) + (t*mu)^2 with t*mu formed by shifting
        n = 12
        mu = motzkin_series(n)
        t_mu = TSeries((OP_ZERO,) + mu.coeffs[:n], n)
        assert 1 + W * t_mu + t_mu * t_mu == mu

    def test_closed_form_matches_series(self):
        mu = motzkin_series(60)
        for n in range(61):
            assert motzkin_closed(n) == mu.coeff(n)

    def test_closed_form_examples(self):
        assert motzkin_closed(4) == OmegaPoly([2, 0, 6, 0, 1])
        assert motzkin_closed(0) == OP_ONE
        assert motzkin_closed(5).evaluate(1) == 21

    def test_catalan_values(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_from_catalan_transform(self):
        # n=2: 1*C_1 - 2*C_2 + 1*C_3 = 1 - 4 + 5 = 2
        assert motzkin_from_catalan(2) == 2
        assert motzkin_from_catalan(0) == 1
        assert motzkin_from_catalan(7) == 127
        mu1 = eval_omega(motzkin_series(20), 1).int_coeffs()
        assert [motzkin_from_catalan(n) for n in range(21)] == mu1


class TestGrandSeries:
    def test_symbolic_prefix(self):
        g = grand_motzkin_series(4)
        assert list(g.coeffs) == [
            OmegaPoly([1]),
            W,
            OmegaPoly([2, 0, 1]),
            OmegaPoly([0, 6, 0, 1]),
            OmegaPoly([6, 0, 12, 0, 1]),
        ]

    def test_weight_zero_interleaved_central_binomials(self):
        assert eval_omega(grand_motzkin_series(4), 0).int_coeffs() == [1, 0, 2, 0, 6]

    def test_weight_two_central_binomials(self):
        assert eval_omega(grand_motzkin_series(4), 2).int_coeffs() == [1, 2, 6, 20, 70]

    def test_matches_oracle(self):
        got = grand_motzkin_series(40)
        assert got == oracle_series(PathSpec.grand(), 0, 40)

    def test_inverse_relation_with_mu(self):
        n = 20
        mu = motzkin_series(n)
        g = grand_motzkin_series(n)
        denom = TSeries([OP_ONE, -W] + [-2 * mu.coeff(k - 2) for k in range(2, n + 1)], n)
        assert g * denom == TSeries([OP_ONE], n)


class TestTriangles:
    def test_motzkin_five_by_five(self):
        assert as_int_rows(eval_omega(motzkin_matrix(5), 1)) == [
            [1],
            [1, 1],
            [2, 2, 1],
            [4, 5, 3, 1],
            [9, 12, 9, 4, 1],
        ]

    def test_column_zero_is_motzkin(self):
        m = motzkin_matrix(9)
        mu = motzkin_series(8)
        for i in range(9):
            assert m.rows[i][0] == mu.coeff(i)

    def test_entry_three_one(self):
        assert motzkin_matrix(4).rows[3][1] == OmegaPoly([2, 0, 3])

    def test_motzkin_step_recurrence(self):
        m = motzkin_matrix(12)
        for n in range(1, 12):
            for j in range(n + 1):
                up = m.entry(n - 1, j + 1) if j + 1 <= n - 1 else OP_ZERO
                down = m.entry(n - 1, j - 1) if j >= 1 else OP_ZERO
                level = W * m.entry(n - 1, j) if j <= n - 1 else OP_ZERO
                assert m.entry(n, j) == up + down + level

    def test_grand_row_four(self):
        assert grand_matrix(5).rows[4] == (
            OmegaPoly([6, 0, 12, 0, 1]),
            OmegaPoly([0, 12, 0, 4]),
            OmegaPoly([4, 0, 6]),
            OmegaPoly([0, 4]),
            OmegaPoly([1]),
        )

    def test_grand_diagonal_and_six_one(self):
        g = grand_matrix(7)
        for i in range(7):
            assert g.rows[i][i] == OP_ONE
        assert g.rows[6][1] == OmegaPoly([0, 60, 0, 60, 0, 6])

    def test_grand_riordan_recurrence(self):
        g = grand_matrix(12)
        table = CountTable(PathSpec.grand(), 12)
        for n in range(11):
            for j in range(n + 2):
                lhs = g.entry(n + 1, j + 1) if j + 1 <= n + 1 else OP_ZERO
                rhs = table.value(n, j) + W * table.value(n, j + 1) + table.value(n, j + 2)
                assert lhs == rhs


class TestColumnGenerating:
    def test_motzkin_column_zero(self):
        assert motzkin_column_gf(0, 10) == motzkin_series(10)

    def test_motzkin_column_one_t2(self):
        # t^2 coefficient of mu^2 is the count of paths to (3, 1)
        got = motzkin_column_gf(1, 5).coeff(2)
        table = CountTable(PathSpec.quadrant(), 3)
        assert got == table.value(3, 1)
        assert got.evaluate(1) == 5

    def test_motzkin_column_constant_terms(self):
        assert motzkin_column_gf(2, 4).coeff(0) == OP_ONE

    def test_motzkin_columns_match_oracle(self):
        table = CountTable(PathSpec.quadrant(), 16)
        for j in range(5):
            col = motzkin_column_gf(j, 10)
            for n in range(11):
                assert col.coeff(n) == table.value(n + j, j), (j, n)

    def test_grand_column_zero(self):
        assert grand_column_gf(0, 8) == grand_motzkin_series(8)

    def test_grand_column_one_t3(self):
        assert grand_column_gf(1, 5).coeff(3) == OmegaPoly([3, 0, 3])

    def test_grand_column_two_t5(self):
        # weight-1 value 30; the printed grand table garbles this entry's mirror
        got = grand_column_gf(2, 6).coeff(5)
        assert got == OmegaPoly([0, 20, 0, 10])
        assert got.evaluate(1) == 30

    def test_grand_columns_match_oracle(self):
        table = CountTable(PathSpec.grand(), 12)
        for j in range(4):
            col = grand_column_gf(j, 12)
            for n in range(13):
                assert col.coeff(n) == table.value(n, j), (j, n)


class TestInverse:
    def test_entry_examples(self):
        assert inverse_motzkin_entry(4, 0).evaluate(1) == -1
        assert inverse_motzkin_entry(3, 2).evaluate(1) == -3
        for i in range(6):
            assert inverse_motzkin_entry(i, i) == OP_ONE

    def test_recurrence_examples(self):
        assert inverse_motzkin_entry_rec(2, 0).evaluate(1) == 0
        assert inverse_motzkin_entry_rec(4, 1).evaluate(1) == 2
        assert inverse_motzkin_entry_rec(7, 7) == OP_ONE

    def test_outside_triangle(self):
        with pytest.raises(IndexOutOfTriangle):
            inverse_motzkin_entry(2, 3)
        with pytest.raises(IndexOutOfTriangle):
            inverse_motzkin_entry_rec(2, -1)

    def test_weight_other_than_w_or_an_int_is_rejected(self):
        with pytest.raises(ValueError, match="neither W nor an int"):
            inverse_motzkin_entry(3, 1, OmegaPoly([3]))

    def test_five_by_five_display(self):
        assert as_int_rows(eval_omega(inverse_motzkin_matrix(5), 1)) == [
            [1],
            [-1, 1],
            [0, -2, 1],
            [1, 1, -3, 1],
            [-1, 2, 3, -4, 1],
        ]

    def test_product_is_identity(self):
        m = motzkin_matrix(12)
        assert m * inverse_motzkin_matrix(12) == identity(12)

    def test_three_computations_agree(self):
        inv = inverse_motzkin_matrix(15)
        for i in range(15):
            for j in range(i + 1):
                closed = inverse_motzkin_entry(i, j)
                assert closed == inverse_motzkin_entry_rec(i, j)
                assert closed == inv.rows[i][j]

    def test_column_zero_is_chebyshev_series(self):
        phi = TSeries([OP_ONE, W, OP_ONE], 12)  # 1 + w t + t^2
        inv_phi = phi.inverse()
        for i in range(13):
            assert inverse_motzkin_entry(i, 0) == inv_phi.coeff(i)

    def test_row_polynomials(self):
        assert eval_omega(inverse_motzkin_poly(4), 1) == TPoly([1, -4, 3, 2, -1])
        assert eval_omega(inverse_motzkin_poly(3), 1) == TPoly([1, -3, 1, 1])
        assert inverse_motzkin_poly(0) == TPoly([1])

    def test_row_polynomial_coefficients_are_entries(self):
        for k in range(12):
            p = inverse_motzkin_poly(k)
            assert p.coeff(0) == OP_ONE
            for j in range(k + 1):
                assert p.coeff(k - j) == inverse_motzkin_entry(k, j)


class TestLemma:
    def test_all_small_indices(self):
        assert verify_lemma(12)  # every pair i, j <= 12

    def test_base_case(self):
        assert verify_lemma(0)

    def test_orthogonality(self):
        assert verify_orthogonality(12)


class TestBanded:
    def test_k1_all_ones(self):
        got = eval_omega(banded_motzkin_gf(1).expand(10), 1).int_coeffs()
        assert got == [1] * 11

    def test_k2_powers_of_two(self):
        got = eval_omega(banded_motzkin_gf(2).expand(10), 1).int_coeffs()
        assert got == [1] + [2**n for n in range(10)]

    def test_k3_prefix(self):
        got = eval_omega(banded_motzkin_gf(3).expand(7), 1).int_coeffs()
        assert got == [1, 1, 2, 4, 9, 21, 50, 120]  # A171842

    def test_matches_oracle_symbolically(self):
        for k in range(1, 6):
            got = banded_motzkin_gf(k).expand(25)
            assert got == oracle_series(PathSpec.banded(k), 0, 25), k

    def test_stabilizes_to_motzkin(self):
        mu = motzkin_series(12)
        for k in range(1, 13):
            got = banded_motzkin_gf(k).expand(k - 1)
            assert got == truncate(mu, k - 1), k

    def test_recursion_check(self):
        assert banded_motzkin_recursion_check(1, 15)
        assert banded_motzkin_recursion_check(2, 20)
        assert banded_motzkin_recursion_check(4, 30)

    def test_denominator_unit_constant(self):
        for k in range(1, 9):
            assert banded_motzkin_gf(k).den.coeff(0) == OP_ONE

    def test_expansion_coefficients_nonnegative(self):
        for k in (1, 3, 5):
            series = banded_motzkin_gf(k).expand(20)
            for c in series.coeffs:
                assert all(v >= 0 for v in c.coeffs), k


class TestFirstReturn:
    def test_identity_horizon(self):
        assert first_return_check(30)

    def test_hand_values(self):
        # n=0: M_2 - w M_1 = 1; n=2 at weight 1: 9 - 4 = 5
        mu = motzkin_series(4)
        assert mu.coeff(2) - W * mu.coeff(1) == OP_ONE
        assert (mu.coeff(4) - W * mu.coeff(3)).evaluate(1) == 5
