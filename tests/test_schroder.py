"""General-w paths, compressed Schroeder structure, Delannoy bridges, band theorem."""

from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathenum import schroder
from pathenum.algebra import OP_ONE, InexactDivision, OmegaPoly, RationalGF, TPoly, TSeries, W
from pathenum.motzkin import (
    banded_motzkin_gf,
    grand_column_gf,
    inverse_motzkin_poly,
    motzkin_series,
)
from pathenum.oracle import (
    CountTable,
    IndexOutOfTriangle,
    PathSpec,
    compressed_series,
    count_paths,
    oracle_series,
)
from pathenum.schroder import (
    band_times_s,
    banded_schroder_gf,
    banded_schroder_series,
    banded_w_gf,
    banded_w_series,
    central_delannoy_series,
    compressed_column_gf,
    compressed_p_poly,
    delannoy_number,
    delannoy_poly,
    delannoy_recursion_check,
    delannoy_s_bridge_check,
    gould_identity_check,
    inverse_schroder_column_gf,
    inverse_schroder_entry,
    inverse_schroder_matrix,
    inverse_schroder_poly,
    schroder_matrix_compressed,
    schroder_series,
    theorem_schroeder_check,
    w_column_gf,
    w_p_poly,
    w_series,
)
from conftest import as_int_rows, banded_schroder_gf_via_s, eval_omega, identity


class TestWSeries:
    def test_w1_is_motzkin(self):
        assert w_series(1, 20) == motzkin_series(20)

    def test_w3_sixth_coefficient(self):
        assert w_series(3, 6).coeff(6) == OmegaPoly([5, 0, 1])

    def test_w2_fourth_coefficient(self):
        assert w_series(2, 4).coeff(4) == OmegaPoly([2, 3, 1])

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_matches_oracle(self, w):
        assert w_series(w, 20) == oracle_series(PathSpec.quadrant(w), 0, 20)

    def test_compressed_series_is_even_part(self):
        full = w_series(2, 20)
        compressed = schroder_series(10)
        for n in range(11):
            assert compressed.coeff(n) == full.coeff(2 * n)


class TestPPolynomials:
    def test_index_zero(self):
        assert w_p_poly(0, 3) == TPoly([1])
        assert compressed_p_poly(0) == TPoly([1])

    def test_compressed_two_at_weight_one(self):
        assert eval_omega(compressed_p_poly(2), 1) == TPoly([1, -3, 1])

    def test_compressed_three_at_weight_one(self):
        assert eval_omega(compressed_p_poly(3), 1) == TPoly([1, -5, 5, -1])

    def test_constant_term_one_and_degree_bound(self):
        for w in (1, 2, 3):
            for n in range(10):
                p = w_p_poly(n, w)
                assert p.coeff(0) == OP_ONE
                assert len(p.coeffs) - 1 <= n * w
        for n in range(12):
            cp = compressed_p_poly(n)
            assert cp.coeff(0) == OP_ONE
            assert len(cp.coeffs) - 1 <= n

    def test_w1_equals_inverse_motzkin_poly(self):
        for n in range(12):
            assert w_p_poly(n, 1) == inverse_motzkin_poly(n)

    def test_compressed_is_even_part_of_w2(self):
        for n in range(10):
            full = w_p_poly(n, 2)
            comp = compressed_p_poly(n)
            for a in range(len(full.coeffs)):
                if a % 2:
                    assert not full.coeff(a)
                else:
                    assert full.coeff(a) == comp.coeff(a // 2)


class TestColumnGenerating:
    def test_j0_is_w_series(self):
        for w in (1, 2, 3):
            assert w_column_gf(0, w, 12) == w_series(w, 12)

    def test_w3_column_one_table_values(self):
        col = w_column_gf(1, 3, 6)
        want = [
            OmegaPoly([]),
            OmegaPoly([1]),
            OmegaPoly([]),
            OmegaPoly([2]),
            OmegaPoly([0, 2]),
            OmegaPoly([5]),
            OmegaPoly([0, 8]),
        ]
        assert list(col.coeffs) == want

    def test_matches_oracle_any_height(self):
        for w in (1, 2, 3):
            table = CountTable(PathSpec.quadrant(w), 14)
            for j in range(4):
                col = w_column_gf(j, w, 14)
                for n in range(15):
                    assert col.coeff(n) == table.value(n, j), (w, j, n)

    def test_compressed_column_alignment(self):
        # coefficient of t^n is the compressed entry (n+j, j)
        for j in range(4):
            col = compressed_column_gf(j, 8)
            oracle_col = compressed_series(j, 8 + j)
            for n in range(9):
                assert col.coeff(n) == oracle_col.coeff(n + j), (j, n)

    def test_compressed_column_three_low_order(self):
        col = compressed_column_gf(3, 5)
        for n in range(6):
            assert col.coeff(n) == count_paths(PathSpec.quadrant(w=2), 2 * n + 3, 3)

    def test_columns_satisfy_fibonacci_like_recursion(self):
        # t W(t,j) = (1 - w t^w) W(t,j-1) - t W(t,j-2) for j > 1
        for w in (1, 2, 3):
            order = 12
            cols = [w_column_gf(j, w, order) for j in range(5)]
            step = TPoly([OP_ONE] + [OmegaPoly([])] * (w - 1) + [-W])
            t = TPoly([0, 1])
            for j in range(2, 5):
                assert t * cols[j] == step * cols[j - 1] - t * cols[j - 2], (w, j)

    @pytest.mark.parametrize("omega", [W, 1, -2])
    def test_a_step_longer_than_the_order_is_cut(self, omega):
        # the engine cuts the step to the order, the oracle counts with the step itself;
        # that the cut saves the memory of a step of 10^9 is checked in test_streaming
        w, order = 10**5, 6
        for j in range(3):
            want = oracle_series(PathSpec.quadrant(w), j, order, omega)
            assert w_column_gf(j, w, order, omega) == want, j
            assert schroder._grand(w, 2, j, order, omega) == oracle_series(
                PathSpec.grand(w), j, order, omega), j
        for k in range(1, 4):
            want = oracle_series(PathSpec.banded(k, w), 0, order, omega)
            assert banded_w_series(k, w, order, omega) == want, k


class TestBandedGeneral:
    def test_w1_reduces_to_motzkin_band(self):
        for k in range(1, 7):
            assert banded_w_gf(k, 1) == banded_motzkin_gf(k)

    def test_w2_k2_compressed_prefix(self):
        got = eval_omega(banded_w_gf(2, 2).expand(8), 1).int_coeffs()
        assert got[::2] == [1, 2, 5, 13, 34]

    def test_w2_k4_weight_one_prefix(self):
        got = eval_omega(banded_w_gf(4, 2).expand(12), 1).int_coeffs()
        assert got[::2] == [1, 2, 6, 22, 89, 377, 1630]

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_matches_oracle_symbolically(self, w):
        for k in range(1, 6):
            got = banded_w_gf(k, w).expand(20)
            assert got == oracle_series(PathSpec.banded(k, w), 0, 20), (w, k)

    def test_banded_schroder_series_symbolic_vs_oracle(self):
        for k in range(1, 6):
            got = banded_schroder_series(k, 15)
            want = compressed_series(0, 15, band=k)
            assert got == want, k


class TestCompressedTriangle:
    def test_display(self):
        assert as_int_rows(eval_omega(schroder_matrix_compressed(5), 1)) == [
            [1],
            [2, 1],
            [6, 4, 1],
            [22, 16, 6, 1],
            [90, 68, 30, 8, 1],
        ]

    def test_diagonal_ones(self):
        m = schroder_matrix_compressed(8)
        for i in range(8):
            assert m.rows[i][i] == OP_ONE

    def test_entry_one_zero(self):
        assert schroder_matrix_compressed(2).rows[1][0] == 1 + W


class TestInverseSchroder:
    def test_entry_examples(self):
        assert inverse_schroder_entry(4, 1).evaluate(1) == -12
        assert inverse_schroder_entry(2, 0).evaluate(1) == 2
        for k in range(8):
            assert inverse_schroder_entry(k, k) == OP_ONE

    def test_outside_triangle(self):
        with pytest.raises(IndexOutOfTriangle):
            inverse_schroder_entry(3, 5)

    def test_inexact_term_raises(self, monkeypatch):
        # C(5, 3) = 10 made 11: the m = 0 term of s[4,1] is 2 * 11 / 5
        real = schroder.binom
        monkeypatch.setattr(schroder, "binom", lambda n, k: real(n, k) + ((n, k) == (5, 3)))
        with pytest.raises(InexactDivision):
            inverse_schroder_entry(4, 1)

    def test_display(self):
        assert as_int_rows(eval_omega(inverse_schroder_matrix(5), 1)) == [
            [1],
            [-2, 1],
            [2, -4, 1],
            [-2, 8, -6, 1],
            [2, -12, 18, -8, 1],
        ]

    def test_product_identity(self):
        m = schroder_matrix_compressed(12)
        assert m * inverse_schroder_matrix(12) == identity(12)

    def test_closed_form_matches_inversion(self):
        inv = inverse_schroder_matrix(12)
        for k in range(12):
            for j in range(k + 1):
                assert inverse_schroder_entry(k, j) == inv.rows[k][j]

    def test_column_zero_weight_one(self):
        inv = as_int_rows(eval_omega(inverse_schroder_matrix(5), 1))
        assert [inv[n][0] for n in range(5)] == [1, -2, 2, -2, 2]


class TestInverseSchroderPoly:
    def test_four_at_weight_one(self):
        assert eval_omega(inverse_schroder_poly(4), 1) == TPoly([1, -8, 18, -12, 2])

    def test_zero(self):
        assert inverse_schroder_poly(0) == TPoly([1])

    def test_three_at_weight_one(self):
        assert eval_omega(inverse_schroder_poly(3), 1) == TPoly([1, -6, 8, -2])

    def test_rows_are_band_differences_and_inverse_rows(self):
        # s_n = P_n - t P_(n-1) and the rows of the inverted triangle, symbolically
        inv = inverse_schroder_matrix(22)
        t = TPoly([0, 1])
        for n in range(22):
            p = inverse_schroder_poly(n)
            assert p.coeff(0) == OP_ONE
            below = compressed_p_poly(n - 1) if n else TPoly(())
            assert p == compressed_p_poly(n) - t * below, n
            for k in range(n + 1):
                assert p.coeff(n - k) == inv.rows[n][k], (n, k)


class TestInverseColumnGF:
    def test_column_zero(self):
        got = inverse_schroder_column_gf(0, 4).int_coeffs()
        assert got == [1, -2, 2, -2, 2]

    def test_column_one(self):
        got = inverse_schroder_column_gf(1, 4).int_coeffs()
        assert got == [0, 1, -4, 8, -12]

    def test_column_two(self):
        got = inverse_schroder_column_gf(2, 4).int_coeffs()
        assert got == [0, 0, 1, -6, 18]

    def test_matches_entries(self):
        for k in range(6):
            got = inverse_schroder_column_gf(k, 14).int_coeffs()
            for n in range(15):
                want = inverse_schroder_entry(n, k).evaluate(1) if n >= k else 0
                assert got[n] == want, (k, n)


class TestDelannoy:
    def test_central_values(self):
        assert delannoy_number(2, 2) == OmegaPoly([6, 6, 1])
        assert delannoy_number(2, 2).evaluate(1) == 13
        assert delannoy_number(3, 3).evaluate(1) == 63

    def test_k_zero_column(self):
        for n in range(8):
            assert delannoy_number(n, 0) == OP_ONE

    def test_boundary_row(self):
        for j in range(8):
            assert delannoy_number(0, j) == OP_ONE

    def test_recursion_symbolic(self):
        assert delannoy_recursion_check(15)

    @settings(max_examples=50, deadline=None)
    @given(order=st.integers(0, 40), x=st.integers(-3, 5))
    def test_p_recurrence_matches_closed_sum(self, order, x):
        at_x = central_delannoy_series(order, x)
        assert at_x.coeffs == tuple(delannoy_number(n, n, x) for n in range(order + 1))
        assert all(type(c) is int for c in at_x.coeffs)
        symbolic = central_delannoy_series(min(order, 20))
        assert symbolic.coeffs == tuple(delannoy_number(n, n) for n in range(symbolic.order + 1))
        assert all(isinstance(c, OmegaPoly) for c in symbolic.coeffs)

    @pytest.mark.parametrize("omega", [W, 3], ids=["symbolic", "weight-3"])
    def test_planted_term_raises_inexact_division(self, omega, monkeypatch):
        # 2n D_n is divided by 2n once per term (schroder._grand); a +1
        # planted in D_5 makes the division by 12 of the next term leave a
        # remainder.
        real = schroder._div_exact

        def planted(a, k):
            q = real(a, k)
            return q + 1 if k == 10 else q

        central_delannoy_series(20, omega)
        monkeypatch.setattr(schroder, "_div_exact", planted)
        with pytest.raises(InexactDivision):
            central_delannoy_series(20, omega)

    def test_hand_case(self):
        # D(1,1) = w D(0,0) + D(1,0) + D(0,1) = w + 1 + 1
        assert delannoy_number(1, 1) == OmegaPoly([2, 1])

    def test_counts_grand_w2_paths(self):
        table = CountTable(PathSpec.grand(w=2), 20)
        for n in range(7):
            for j in range(7):
                assert delannoy_number(n, n + j) == table.value(2 * n + j, j), (n, j)

    def test_polynomial_examples(self):
        assert eval_omega(delannoy_poly(3), 1) == TPoly([1, 5, 5, 1])
        assert delannoy_poly(0) == TPoly([1])
        assert eval_omega(delannoy_poly(4), 1) == TPoly([1, 7, 13, 7, 1])

    @staticmethod
    def _assert_polynomials_match_closed_sum(omega):
        # d_k = sum_l C(k-l, l) omega^l t^l (1+t)^(k-2l), independent of delannoy_number
        for k in range(26):
            want = TPoly(())
            for l in range(k // 2 + 1):
                want = want + (TPoly([1, 1]) ** (k - 2 * l)).shift(l) * (comb(k - l, l) * omega**l)
            assert delannoy_poly(k, omega) == want, (k, omega)

    @pytest.mark.parametrize("omega", [W, -2, 0, 3], ids=["symbolic", "-2", "0", "3"])
    def test_polynomials_match_closed_sum(self, omega):
        self._assert_polynomials_match_closed_sum(omega)

    @pytest.mark.parametrize("omega", [W, -2, 0, 3], ids=["symbolic", "-2", "0", "3"])
    def test_closed_sum_catches_a_shifted_number(self, omega, monkeypatch):
        # coefficients read from D(n+1, k) instead of D(n, k) must not pass
        real = schroder.delannoy_number
        monkeypatch.setattr(schroder, "delannoy_number", lambda n, k, omega: real(n + 1, k, omega))
        with pytest.raises(AssertionError):
            self._assert_polynomials_match_closed_sum(omega)

    def test_degree_and_constant(self):
        for k in range(1, 31):
            p = delannoy_poly(k)
            assert len(p.coeffs) - 1 == k
            assert p.coeff(0) == OP_ONE

    def test_bivariate_generating_function(self):
        # sum_k d_k x^k (1 - x - t(x + w x^2)) = 1, checked to total degree 12
        d = [delannoy_poly(k) for k in range(13)]
        t = TPoly([0, 1])
        for m in range(13):
            acc = d[m]
            if m >= 1:
                acc = acc - d[m - 1] - t * d[m - 1]
            if m >= 2:
                acc = acc - (t * W) * d[m - 2]
            assert acc == (TPoly([1]) if m == 0 else TPoly([])), m


class TestBandedSchroder:
    def test_k4_full_example(self):
        got = banded_schroder_gf(4).expand(16).int_coeffs()
        assert got == [
            1, 2, 6, 22, 89, 377, 1630, 7110, 31130, 136513, 599041,
            2629418, 11542854, 50674318, 222470009, 976694489, 4287928678,
        ]

    def test_k1_all_ones(self):
        assert banded_schroder_gf(1).expand(8).int_coeffs() == [1] * 9

    def test_k2_prefix(self):
        assert banded_schroder_gf(2).expand(4).int_coeffs() == [1, 2, 5, 13, 34]

    def test_three_routes_agree(self):
        for k in range(1, 7):
            direct = banded_schroder_gf(k).expand(30)
            via_s = banded_schroder_gf_via_s(k).expand(30)
            via_p = eval_omega(banded_w_gf(k, 2).expand(60), 1).int_coeffs()[::2]
            assert direct == via_s, k
            assert direct.int_coeffs() == via_p, k

    def test_equals_the_delannoy_form(self):
        # the engine's band P_(k-1)/P_k against d_(k-1)(-t)/d_k(-t), the
        # Delannoy form that verify bridge checks the band polynomials by
        for k in range(1, 41):
            want = RationalGF(schroder._d_neg_at1(k - 1), schroder._d_neg_at1(k))
            assert banded_schroder_gf(k) == want, k

    def test_matches_oracle(self):
        for k in range(1, 7):
            got = banded_schroder_gf(k).expand(20).int_coeffs()
            want = eval_omega(compressed_series(0, 20, band=k), 1).int_coeffs()
            assert got == want, k


class TestBridges:
    def test_small_indices(self):
        assert delannoy_s_bridge_check(20)
        with pytest.raises(ValueError):
            delannoy_s_bridge_check(0)


    def test_hand_s1(self):
        # s_1 = d_1(-t) - t d_0(-t) = (1 - t) - t
        s1 = eval_omega(inverse_schroder_poly(1), 1)
        assert s1 == TPoly([1, -2])

    def test_hand_s3_from_d(self):
        d2 = eval_omega(delannoy_poly(2), 1).at_neg_t()
        d4 = eval_omega(delannoy_poly(4), 1).at_neg_t()
        num = d2.shift(2) + d4
        assert TPoly([1, -1]) * eval_omega(inverse_schroder_poly(3), 1) == num

    def test_remainder_is_a_named_mismatch(self, monkeypatch):
        # a planted error in d_4(-t) leaves t^2 d_2(-t) + d_4(-t) with a
        # remainder mod 1 - t; the bridge compares the product (1 - t) s_3
        # with it and reports both sides, it does not raise
        real = schroder._d_neg_at1

        def planted(k):
            d = real(k)
            return d + 1 if k == 4 else d

        monkeypatch.setattr(schroder, "_d_neg_at1", planted)
        result = delannoy_s_bridge_check(6)
        assert not result
        lhs = TPoly([1, -1]) * inverse_schroder_poly(3, 1)
        rhs = real(2).shift(2) + real(4) + 1
        assert result.detail == f"first mismatch at quotient identity at n=3: lhs={lhs}, rhs={rhs}"

    def test_p_to_delannoy_bridge(self):
        for k in range(26):
            lhs = eval_omega(compressed_p_poly(k), 1)
            rhs = eval_omega(delannoy_poly(k), 1).at_neg_t()
            assert lhs == rhs, k


class TestTheorem:
    def test_k4_regular_and_principal(self):
        assert theorem_schroeder_check(4, 12, band_times_s(4, 12))
        s3 = eval_omega(inverse_schroder_poly(3), 1)
        s2 = eval_omega(inverse_schroder_poly(2), 1)
        product = banded_schroder_gf(4).expand(16) * s3
        assert band_times_s(4, 12) == product
        coeffs = product.int_coeffs()
        assert coeffs[:4] == [1, -4, 2, 0]  # principal part: s_2 padded to length 4
        assert coeffs[4:] == [
            1, 7, 36, 168, 756, 3353, 14783, 65016, 285648, 1254456,
            5508097, 24183271, 106173180,
        ]
        assert not (product - s2).coeff(0)

    def test_k2_against_oracle(self):
        assert theorem_schroeder_check(2, 10, band_times_s(2, 10))
        col = eval_omega(compressed_series(1, 12, band=2), 1)
        assert [col.coeff(n).evaluate(0) for n in (1, 2, 3)] == [1, 3, 8]

    def test_range_of_bands(self):
        for k in range(2, 7):
            assert theorem_schroeder_check(k, 25, band_times_s(k, 25)), k

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            theorem_schroeder_check(1, 5, band_times_s(1, 5))

    def test_principal_mismatch_is_named(self, monkeypatch):
        real = schroder.inverse_schroder_poly

        def perturbed(n, omega=W):  # s_2 = 1 - 4t + 2t^2 becomes 1 - 3t + 2t^2 at weight 1
            return real(n, omega) + TPoly([0, 1]) if (n, omega) == (2, 1) else real(n, omega)

        monkeypatch.setattr(schroder, "inverse_schroder_poly", perturbed)
        result = theorem_schroeder_check(4, 12, band_times_s(4, 12))
        assert not result
        assert "principal coefficient t^-3 (k=4)" in result.detail
        assert "lhs=-4, rhs=-3" in result.detail

    def test_regular_mismatch_is_named(self, monkeypatch):
        real = schroder.compressed_series

        def changed(j, order, band=0, omega=W):  # entry 5 of the column is regular t^2 at k=4
            col = real(j, order, band, omega)
            coeffs = list(col.coeffs)
            coeffs[5] = coeffs[5] + 1
            return TSeries(coeffs, col.order)

        monkeypatch.setattr(schroder, "compressed_series", changed)
        result = theorem_schroeder_check(4, 12, band_times_s(4, 12))
        assert not result
        assert "regular coefficient t^2 (k=4)" in result.detail
        assert "lhs=36, rhs=37" in result.detail


class TestGould:
    def test_hand_case(self):
        assert gould_identity_check(2, 1)

    def test_m_zero_powers_of_two(self):
        for k in range(12):
            assert gould_identity_check(k, 0)

    def test_full_range(self):
        for k in range(21):
            for m in range(k // 2 + 1):
                assert gould_identity_check(k, m), (k, m)

    def test_precondition(self):
        with pytest.raises(ValueError):
            gould_identity_check(3, 2)


LIFT_FAMILIES = [(1, 2), (1, 1), (2, 2), (3, 2), (4, 2)]


def _lift_cases(a, b, j, k):
    """The builders lifted at W on the lattice (a, b), at height j and band k.

    name -> (build(order, omega), e, c, oracle(order)), the oracle being the
    same counts read off a CountTable at W.
    """
    if b == 1:  # compressed w = 2: t^n of column j counts the paths to (2n + j, j)
        def central(order):
            table = CountTable(PathSpec.grand(2), 2 * order)
            return TSeries([table.value(2 * n, 0) for n in range(order + 1)], order)

        return {
            "series": (lambda o, om: schroder._series(1, 1, o, om), 0, 1,
                       lambda o: compressed_series(0, o)),
            "column": (lambda o, om: schroder._column(1, 1, j, o, om), 0, j + 1,
                       lambda o: TSeries(compressed_series(j, o + j).coeffs[j:], o)),
            "banded": (lambda o, om: schroder._banded_series(1, 1, k, o, om), 0, 1,
                       lambda o: compressed_series(0, o, band=k)),
            "delannoy": (lambda o, om: central_delannoy_series(o, om), 0, 1, central),
        }
    cases = {
        "series": (lambda o, om: schroder._series(a, 2, o, om), 0, 1,
                   lambda o: oracle_series(PathSpec.quadrant(a), 0, o)),
        "column": (lambda o, om: schroder._column(a, 2, j, o, om), j, j + 1,
                   lambda o: oracle_series(PathSpec.quadrant(a), j, o)),
        "banded": (lambda o, om: schroder._banded_series(a, 2, k, o, om), 0, 1,
                   lambda o: oracle_series(PathSpec.banded(k, a), 0, o)),
    }
    if a == 1:
        cases["grand"] = (lambda o, om: grand_column_gf(j, o, om), j, j + 1,
                          lambda o: oracle_series(PathSpec.grand(), j, o))
    return cases


class TestLift:
    """At W each series builder is lifted from its int run at w = 0 (_lift)."""

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(LIFT_FAMILIES), j=st.integers(0, 5), k=st.integers(1, 8),
           order=st.integers(0, 40))
    @example(family=(1, 2), j=5, k=1, order=2)  # an order below e = j
    @example(family=(4, 2), j=5, k=8, order=40)
    def test_matches_oracle_and_int_runs(self, family, j, k, order):
        for name, (build, _, _, oracle) in _lift_cases(*family, j, k).items():
            got = build(order, W)
            assert all(isinstance(x, OmegaPoly) for x in got.coeffs), name
            assert got == oracle(order), name
            for x in range(-3, 6):
                assert eval_omega(got, x).int_coeffs() == list(build(order, x).coeffs), (name, x)

    def test_off_lattice_coefficient_raises_inexact_division(self):
        q0 = schroder._series(1, 2, 6, 0)
        planted = TSeries(q0.coeffs[:3] + (1,) + q0.coeffs[4:], 6)  # t^3 is off 0 + 2m
        with pytest.raises(InexactDivision):
            schroder._lift(1, 2, 0, 1, planted, 6)
        below = TSeries([1] + [0] * 6, 6)  # t^0 lies below e = 2
        with pytest.raises(InexactDivision):
            schroder._lift(1, 2, 2, 3, below, 6)

    def test_planted_binomial_step_raises_inexact_division(self, monkeypatch):
        # g C(s+r, r) = g C(s+r-1, r-1) (s+r) / r; a +1 on the product leaves
        # a remainder at the first r >= 2.  _lift_rows divides by the builtin
        # divmod, so the plant shadows that name in the module; the remainder
        # raises when its row is made, on first read of the series.
        q0 = schroder._series(1, 2, 10, 0)
        monkeypatch.setattr(schroder, "divmod", lambda a, k: divmod(a + 1, k), raising=False)
        with pytest.raises(InexactDivision):
            schroder._lift(1, 2, 0, 1, q0, 10).coeffs

    @pytest.mark.parametrize("family", LIFT_FAMILIES)
    def test_c_off_by_one_fails_the_oracle(self, family):
        for name, (build, e, c, oracle) in _lift_cases(*family, 3, 4).items():
            q0, want = build(12, 0), oracle(12)
            assert schroder._lift(*family, e, c, q0, 12) == want, name
            assert schroder._lift(*family, e, c + 1, q0, 12) != want, name
