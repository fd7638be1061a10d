"""Hankel determinants: the remainder sequence, Bareiss, cofactors and closed forms."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pathenum import algebra, hankel
from pathenum.algebra import OP_ONE, OP_ZERO, InexactDivision, OmegaPoly, W, _zero
from pathenum.hankel import (
    HankelSpec,
    det_fraction_free,
    hankel_closed,
    hankel_det,
    hankel_matrix,
    hankel_recursion_check,
    leading_minor_dets,
    second_hankel_closed,
    shifted_hankel_binomial,
    shifted_hankel_closed,
)
from pathenum.motzkin import motzkin_series
from conftest import eval_omega, random_opoly


def det_cofactor(rows):
    """Determinant of square rows by cofactor expansion; exponential, for cross-checks only."""

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

    if not rows:
        return 1
    return rec([list(r) for r in rows])


class TestDeterminantEngine:
    def test_identity(self):
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert det_fraction_free(m) == OP_ONE

    def test_rank_one(self):
        assert det_fraction_free([[1, 2], [2, 4]]) == 0

    def test_motzkin_three(self):
        m = [[1, 1, 2], [1, 2, 4], [2, 4, 9]]
        assert det_fraction_free(m) == OP_ONE

    def test_empty_matrix_convention(self):
        assert det_fraction_free([]) == OP_ONE
        assert det_cofactor([]) == OP_ONE

    def test_mixed_rows_give_an_omegapoly(self):
        # an int and an OmegaPoly entry: every entry is taken as an OmegaPoly
        rows = [[0, W, 2], [1, 3, OmegaPoly([1, 1])], [2, 0, 5]]
        det = det_fraction_free(rows)
        assert type(det) is OmegaPoly
        assert det == det_cofactor(rows) == 2 * W * W - 3 * W - 12
        zero = det_fraction_free([[0, W], [0, 1]])  # no pivot in column 0
        assert zero == 0 and type(zero) is OmegaPoly

    def test_zero_pivot_swap(self):
        assert det_fraction_free([[0, 1], [1, 0]]) == OmegaPoly([-1])
        assert det_fraction_free([[0, 0], [1, 1]]) == 0
        m = [[0, 1, 2], [3, 0, 1], [1, 1, 0]]
        assert det_fraction_free(m) == det_cofactor(m)

    @pytest.mark.parametrize("zero, one", [(0, 1), (OP_ZERO, W)])
    def test_column_without_a_pivot_is_zero(self, zero, one):
        # column 0 has no nonzero entry to swap in: the determinant is the ring's zero
        det = det_fraction_free([[zero, one], [zero, one]])
        assert det == 0
        assert type(det) is type(zero)

    def test_agrees_with_cofactor_on_random_matrices(self, rng):
        for trial in range(40):
            n = rng.randint(1, 5)
            rows = [[random_opoly(rng, max_deg=2, max_abs=4) for _ in range(n)] for _ in range(n)]
            if trial % 5 == 0 and n > 1:
                rows[0][0] = OmegaPoly([])  # force the pivot-swap path
            assert det_fraction_free(rows) == det_cofactor(rows), trial

    def test_leading_minors_match_independent_dets(self, rng):
        for trial in range(20):
            n = rng.randint(2, 5)
            rows = [[random_opoly(rng, max_deg=2, max_abs=4) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                rows[0][0] = OmegaPoly([])  # force the swapped-rows fallback
            want = [det_cofactor([r[: d + 1] for r in rows[: d + 1]]) for d in range(n)]
            assert leading_minor_dets(rows) == want


class TestHankelMatrix:
    def test_plain_motzkin_three(self):
        m = eval_omega(hankel_matrix(HankelSpec(3)), 1)
        assert [list(r) for r in m] == [
            [OmegaPoly([v]) for v in row] for row in [[1, 1, 2], [1, 2, 4], [2, 4, 9]]
        ]

    def test_alpha_beta_two(self):
        spec = HankelSpec(2, alpha=OmegaPoly([1]), beta=OmegaPoly([1]))
        m = eval_omega(hankel_matrix(spec), 1)
        assert [[e.evaluate(0) for e in r] for r in m] == [[2, 3], [3, 6]]

    def test_shift_one_singleton(self):
        m = hankel_matrix(HankelSpec(1, shift=1))
        assert m[0][0] == W

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            HankelSpec(0)
        with pytest.raises(ValueError):
            HankelSpec(3, shift=5)
        with pytest.raises(ValueError):
            HankelSpec(3, alpha=OmegaPoly([]), beta=OmegaPoly([]))


class TestClosedForms:
    def test_plain_determinant_is_one_symbolically(self):
        for n in range(1, 11):
            assert det_fraction_free(hankel_matrix(HankelSpec(n))) == OP_ONE
            assert shifted_hankel_closed(n, 1, 0) == OP_ONE

    def test_sum_matrix_two_by_two(self):
        assert shifted_hankel_closed(2, 1, 1).evaluate(1) == 3

    def test_n_plus_one_law(self):
        for n in range(21):
            assert shifted_hankel_closed(n, 1, 1).evaluate(1) == n + 1

    def test_pure_beta_three(self):
        assert shifted_hankel_closed(3, 0, 1).evaluate(1) == -1
        m = eval_omega(hankel_matrix(HankelSpec(3, shift=1)), 1)
        assert det_fraction_free(m).evaluate(0) == -1

    def test_closed_equals_determinant_symbolic(self, rng):
        for _ in range(12):
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            if (a, b) == (0, 0):
                continue
            spec = HankelSpec(7, alpha=OmegaPoly([a]), beta=OmegaPoly([b]))
            det = det_fraction_free(hankel_matrix(spec))
            assert det == shifted_hankel_closed(7, a, b), (a, b)

    def test_homogeneous_of_degree_n(self, rng):
        for _ in range(10):
            a, b, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)
            if (a, b) == (0, 0):
                continue
            n = rng.randint(0, 8)
            scaled = shifted_hankel_closed(n, c * a, c * b)
            assert scaled == c**n * shifted_hankel_closed(n, a, b)

    def test_binomial_form_agrees(self, rng):
        pairs = [(1, 1), (0, 1), (1, 0), (2, -3)] + [
            (random_opoly(rng, 1, 3), random_opoly(rng, 1, 3)) for _ in range(4)
        ]
        for a, b in pairs:
            for n in range(16):
                lhs = shifted_hankel_closed(n, a, b)
                rhs = shifted_hankel_binomial(n, a, b)
                assert lhs == rhs, (n, str(a), str(b))


class TestSecondHankel:
    def test_weight_one_values(self):
        assert [second_hankel_closed(n).evaluate(1) for n in range(1, 7)] == [1, 0, -1, -1, 0, 1]

    def test_symbolic_two(self):
        assert second_hankel_closed(2) == OmegaPoly([-1, 0, 1])

    def test_empty_dimension(self):
        assert second_hankel_closed(0) == OP_ONE

    def test_equals_determinant(self):
        for n in range(1, 9):
            det = det_fraction_free(hankel_matrix(HankelSpec(n, shift=1)))
            assert det == second_hankel_closed(n), n


class TestRecursion:
    def test_hand_size_one(self):
        # 1x1: M_2 = (empty det) + M_1^2, i.e. 1 + w^2
        mu = motzkin_series(2)
        assert mu.coeff(2) == OP_ONE + W * W

    def test_hand_size_two_weight_one(self):
        m = [[2, 4], [4, 9]]
        assert det_fraction_free(m) == 2

    def test_symbolic_up_to_ten(self):
        assert hankel_recursion_check(10)


def test_random_alpha_beta_spot_check():
    rng = random.Random(5)
    for _ in range(3):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        minors = leading_minor_dets(
            hankel_matrix(HankelSpec(9, alpha=OmegaPoly([a]), beta=OmegaPoly([b])))
        )
        for n in range(1, 10):
            assert minors[n - 1] == shifted_hankel_closed(n, a, b)


def _plant_sequence_term(monkeypatch):
    """A +1 in c[5] of every sequence that hankel builds."""
    real = hankel._sequence

    def planted(spec, omega):
        c = real(spec, omega)
        c[5] = c[5] + 1
        return c

    monkeypatch.setattr(hankel, "_sequence", planted)


# (shift, alpha, beta) as the CLI accepts them: any shift with any alpha, beta in [-3, 3]
hankel_specs = st.tuples(
    st.integers(0, 2), st.integers(-3, 3), st.integers(-3, 3)
).filter(lambda t: t[1] or t[2])


class TestRemainderSequence:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 14),
        spec=hankel_specs,
        omega=st.one_of(st.just(W), st.integers(-3, 4)),
    )
    def test_matches_bareiss_closed_form_and_cofactor(self, n, spec, omega):
        shift, alpha, beta = spec
        spec = HankelSpec(n, shift=shift, alpha=alpha, beta=beta)
        det = hankel_det(spec, omega)
        m = hankel_matrix(spec, omega)
        assert det == det_fraction_free(m)
        assert det == hankel_closed(spec, omega)
        if n <= 6:
            assert det == det_cofactor(m)
        kind = OmegaPoly if omega is W else int
        assert type(det) is kind
        assert type(hankel_closed(spec, omega)) is kind

    @pytest.mark.parametrize("omega", [W, 3], ids=["symbolic", "weight-3"])
    def test_planted_remainder_raises_inexact_division(self, monkeypatch, omega):
        # The first row division gives r_2; a +1 planted in its third
        # coefficient must surface as a remainder when a later remainder
        # divides by lc(r_2)^2.  (A +1 planted in the sequence c itself
        # cannot: the subresultant divisions are exact for every input
        # sequence, so only the closed-form cross-check, and at W the degree
        # check, catch that.)  The remainder sequence is hankel_det at an int
        # weight and a cross-check at W.
        spec = HankelSpec(8, alpha=1, beta=1)
        assert hankel._remainder_det(spec, omega) == hankel_closed(spec, omega)
        real, calls = hankel._div_row, []

        def planted(row, d):
            calls.append(d)
            q = real(row, d)
            if len(calls) == 1:
                q[2] = q[2] + 1
            return q

        monkeypatch.setattr(hankel, "_div_row", planted)
        with pytest.raises(InexactDivision):
            hankel._remainder_det(spec, omega)

    @pytest.mark.parametrize("omega", [W, 3], ids=["symbolic", "weight-3"])
    def test_row_division_raises_on_any_remainder(self, omega):
        one = OP_ONE if omega is W else 1
        assert hankel._div_row([6 * one, -4 * one, 0 * one], 2 * one) == [3, -2, 0]
        with pytest.raises(InexactDivision):
            hankel._div_row([6 * one, 5 * one, 4 * one], 2 * one)

    def test_planted_sequence_term_disagrees_with_closed_form(self, monkeypatch):
        # the remainder sequence, at an int weight and at W, takes any sequence
        # without a remainder: only the closed form tells the wrong term
        spec = HankelSpec(8, alpha=1, beta=1)
        _plant_sequence_term(monkeypatch)
        assert hankel_det(spec, 3) != hankel_closed(spec, 3)
        assert hankel._remainder_det(spec, W) != hankel_closed(spec, W)

    def test_planted_sequence_term_exceeds_the_degree_bound(self, monkeypatch):
        # a constant +1 in c[5] lifts the determinant's w-degree past n*D = 8
        spec = HankelSpec(8, alpha=1, beta=1)
        _plant_sequence_term(monkeypatch)
        with pytest.raises(InexactDivision, match="exceeds its degree bound 8 in w"):
            hankel_det(spec, W)

    def _count_bareiss(self, monkeypatch):
        calls = []
        real = hankel.det_fraction_free

        def counted(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(hankel, "det_fraction_free", counted)
        return calls

    def test_degree_gap_falls_back_to_bareiss(self, monkeypatch):
        # At weight 1, (alpha, beta) = (0, 1) has H_2 = 0 but H_6 = 1.
        calls = self._count_bareiss(monkeypatch)
        assert hankel_det(HankelSpec(2, alpha=0, beta=1), 1) == 0
        assert calls == []  # a zero last minor is read off, not a gap
        assert hankel_det(HankelSpec(6, alpha=0, beta=1), 1) == 1
        assert calls == [6]

    def test_gap_reuses_the_sequence_it_holds(self, monkeypatch):
        # c[0] = M_1(0) = 0 opens a gap at the first step; Bareiss takes the
        # matrix of the sequence already built, with no second Motzkin series
        spec = HankelSpec(5, shift=1)
        want = det_fraction_free(hankel_matrix(spec, 0))
        real, orders = hankel.motzkin_series, []

        def counted(order, omega):
            orders.append(order)
            return real(order, omega)

        monkeypatch.setattr(hankel, "motzkin_series", counted)
        bareiss = self._count_bareiss(monkeypatch)
        assert hankel._remainder_det(spec, 0) == want
        assert orders == [10]
        assert bareiss == [5]

    def test_normal_case_never_runs_bareiss(self, monkeypatch):
        # at the int weight 2, (1, 1) has no zero leading minor below n = 20
        calls = self._count_bareiss(monkeypatch)
        spec = HankelSpec(20, alpha=1, beta=1)
        assert hankel_det(spec, 2) == shifted_hankel_closed(20, 1, 1).evaluate(2)
        assert calls == []

    def test_bareiss_never_sees_an_omega_poly(self, monkeypatch):
        # At W, a gap weight is skipped for the next one: for (1, 1), n = 20,
        # the gaps w = 0, -1, -2 run no Bareiss at all.  Only once the skip
        # budget is spent does Bareiss take a gap weight, at an int
        # (TestParity::test_all_gap_spec_falls_back_to_bareiss).
        real, seen = hankel.det_fraction_free, []

        def counted(m):
            seen.append({type(e) for row in m for e in row})
            return real(m)

        monkeypatch.setattr(hankel, "det_fraction_free", counted)
        spec = HankelSpec(20, alpha=1, beta=1)
        assert hankel_det(spec, W) == shifted_hankel_closed(20, 1, 1)
        assert seen == []

    def test_integer_weight_builds_no_omega_poly(self, monkeypatch):
        # Every OmegaPoly operation and constructor goes through a kernel
        # bound in algebra; at an int weight none may run.
        def forbidden(*args):
            raise AssertionError("an OmegaPoly was built at an integer weight")

        for name in ("vnorm", "vadd", "vsub", "vneg", "vmul", "vscale", "vdivexact",
                     "vdivexact_int", "veval", "vdot"):
            monkeypatch.setattr(algebra, name, forbidden)
        monkeypatch.setattr(algebra, "_raw", forbidden)
        for shift, alpha, beta in [(0, 1, 1), (0, 2, -1), (0, 0, 1), (1, 1, 0), (2, 1, 0)]:
            spec = HankelSpec(9, shift=shift, alpha=alpha, beta=beta)
            assert hankel_det(spec, 2) == hankel_closed(spec, 2)

    def test_shifted_closed_forms_need_the_plain_spec(self):
        # a shifted spec other than (1, 0) has a closed form as well
        for spec in [HankelSpec(3, shift=1, alpha=2), HankelSpec(4, shift=2, alpha=0, beta=3)]:
            assert hankel_closed(spec) == hankel_det(spec)


# alpha or beta: an int, or a polynomial in w of degree <= 2
hankel_scalars = st.one_of(
    st.integers(-3, 3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(OmegaPoly),
)


class TestInterpolation:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 24),
        shift=st.integers(0, 2),
        alpha=hankel_scalars,
        beta=hankel_scalars,
    )
    def test_matches_remainder_sequence_bareiss_closed_form_and_cofactor(
        self, n, shift, alpha, beta
    ):
        assume(alpha or beta)
        spec = HankelSpec(n, shift=shift, alpha=alpha, beta=beta)
        det = hankel_det(spec, W)
        assert type(det) is OmegaPoly
        assert det.degree <= hankel._degree_bound(spec)
        at_two = hankel_det(spec, 2)  # alpha and beta taken at the weight as well
        assert type(at_two) is int and at_two == det.evaluate(2)
        assert det == hankel._remainder_det(spec, W)
        m = hankel_matrix(spec)
        assert det == det_fraction_free(m)
        assert det == hankel_closed(spec, W)
        assert at_two == hankel_closed(spec, 2)
        if n <= 6:
            assert det == det_cofactor(m)

    def _record_weights(self, monkeypatch):
        # (weight, value) of each remainder run; None where a gap was skipped
        real, calls = hankel._remainder_det, []

        def recorded(spec, omega, skip_gap=False):
            assert type(omega) is int
            value = real(spec, omega, skip_gap)
            calls.append((omega, value))
            return value

        monkeypatch.setattr(hankel, "_remainder_det", recorded)
        return calls

    @pytest.mark.parametrize(
        "spec, weights, gaps",
        [
            # parity specs: x = e, e+1, ... for R(x^2), then a negative check weight
            pytest.param(HankelSpec(5), [0, -1], [], id="spec0-0"),
            pytest.param(HankelSpec(5, shift=2), [0, 1, 2, 3, 4, 5, -6], [], id="spec2-2"),
            pytest.param(HankelSpec(5, shift=1), [1, 2, 3, 4, -5], [1], id="shift1-e1"),
            pytest.param(HankelSpec(4, shift=1), [0, 1, 2, 3, 4, -5], [0, 1], id="shift1-e0"),
            pytest.param(HankelSpec(3, alpha=0, beta=1), [1, 2, 3, -4], [1], id="beta-e1"),
            # any other spec: 0, 1, -1, 2, -2, ..., the last one the check weight
            pytest.param(HankelSpec(5, alpha=2, beta=-1),
                         [0, 1, -1, 2, -2, 3, -3, 4, -4, 5], [1, 2, 3], id="spec1-1"),
            pytest.param(HankelSpec(5, alpha=OmegaPoly([0, 0, 1]), beta=1),
                         [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7], [0, -1], id="spec3-2"),
            pytest.param(HankelSpec(5, shift=1, alpha=0, beta=OmegaPoly([1, 1])),
                         [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8, 9], [-1],
                         id="spec4-3"),
        ],
    )
    def test_remainder_sequence_runs_only_at_integer_weights(
        self, monkeypatch, spec, weights, gaps
    ):
        # the remainder sequence runs at the int weights of the schedule, and a
        # gap weight is skipped for the next one; the symbolic remainder
        # sequence never runs
        calls = self._record_weights(monkeypatch)
        assert hankel_det(spec, W) == det_fraction_free(hankel_matrix(spec))
        assert [x for x, _ in calls] == weights
        assert [x for x, value in calls if value is None] == gaps
        calls.clear()
        assert hankel_det(spec, -2) == det_fraction_free(hankel_matrix(spec, -2))
        assert [x for x, _ in calls] == [-2]

    def test_weight_where_alpha_and_beta_both_vanish(self):
        # at w = 0 every c[k] is 0, so the remainder sequence falls back to
        # Bareiss on the zero matrix
        spec = HankelSpec(6, alpha=W, beta=W)
        assert hankel_det(spec, 0) == 0
        assert hankel_det(spec, W) == det_fraction_free(hankel_matrix(spec))
        assert hankel_det(spec, W) == hankel_closed(spec, W)

    def test_lowered_degree_bound_raises_inexact_division(self, monkeypatch):
        # (1, 1) has degree exactly n in w: n - 1 misses the top coefficient
        spec = HankelSpec(8, alpha=1, beta=1)
        assert hankel_det(spec, W).degree == hankel._degree_bound(spec) == 8
        real = hankel._degree_bound
        monkeypatch.setattr(hankel, "_degree_bound", lambda spec: real(spec) - 1)
        with pytest.raises(InexactDivision, match="exceeds its degree bound 7 in w"):
            hankel_det(spec, W)

    @pytest.mark.parametrize("which", [1, 3, 17, 44])
    def test_planted_newton_division_raises_inexact_division(self, monkeypatch, which):
        # a +1 in one divided difference; the thirteen remainder runs (ten
        # weights and the gaps 0, -1, -2 skipped) divide by rows (_div_row)
        # and never here, so every division here is Newton's
        spec = HankelSpec(8, alpha=1, beta=1)
        calls = self._record_weights(monkeypatch)
        real, divisions = hankel._div_exact, []

        def planted(a, b):
            q = real(a, b)
            assert len(calls) == 13
            divisions.append(b)
            return q + 1 if len(divisions) == which else q

        monkeypatch.setattr(hankel, "_div_exact", planted)
        with pytest.raises(InexactDivision):
            hankel_det(spec, W)
        assert [x for x, value in calls if value is None] == [0, -1, -2]
        assert len(divisions) >= which

    @pytest.mark.parametrize("node", range(4))
    def test_planted_value_at_one_weight_raises_inexact_division(self, monkeypatch, node):
        # D = 1 and parity e = 0: R(u) of degree 2 from the weights 2, 3, 4
        # (0 and 1 are gaps), and the check weight -5
        spec = HankelSpec(4, shift=1)
        real, values = hankel._remainder_det, []

        def planted(spec, omega, skip_gap=False):
            value = real(spec, omega, skip_gap)
            if value is None:
                return value
            values.append(omega)
            return value + (len(values) == node + 1)

        monkeypatch.setattr(hankel, "_remainder_det", planted)
        with pytest.raises(InexactDivision):
            hankel_det(spec, W)
        assert values == [2, 3, 4, -5]


class TestChristoffel:
    """hankel_closed: Christoffel's formula over rows n .. n+s of the inverse triangle."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        shift=st.integers(0, 2),
        alpha=hankel_scalars,
        beta=hankel_scalars,
        omega=st.one_of(st.just(W), st.integers(-3, 4)),
    )
    # weights where alpha and beta both vanish: every c[k] is 0, and so is the
    # determinant (alpha = w + 1 would otherwise divide by (-alpha)^s = 0)
    @example(n=5, shift=1, alpha=OmegaPoly([1, 1]), beta=0, omega=-1)
    @example(n=4, shift=2, alpha=W, beta=OmegaPoly([0, 0, 2]), omega=0)
    def test_polynomial_scalars_match_hankel_det(self, n, shift, alpha, beta, omega):
        assume(alpha or beta)
        spec = HankelSpec(n, shift=shift, alpha=alpha, beta=beta)
        closed = hankel_closed(spec, omega)
        assert closed == hankel_det(spec, omega)
        assert type(closed) is (OmegaPoly if omega is W else int)

    @pytest.mark.parametrize("omega", [W, 2], ids=["symbolic", "weight-2"])
    @pytest.mark.parametrize(
        "spec, i, j",
        # beta != 0: every row of M'
        [(HankelSpec(6, shift=2, alpha=2, beta=-1), i, j) for i in range(3) for j in range(2)]
        + [(HankelSpec(5, shift=1, alpha=OmegaPoly([1, 1]), beta=1), i, 0) for i in range(2)]
        # beta = 0 (also alpha = 0, taken as (s + 1, beta, 0)): h_i = 0 for
        # i < s, so only the rows above the last one change det(M')
        + [(HankelSpec(7, shift=2), i, j) for i in range(2) for j in range(2)]
        + [(HankelSpec(4, shift=1, alpha=0, beta=3), i, j) for i in range(2) for j in range(2)],
    )
    def test_planted_entry_raises_or_disagrees(self, monkeypatch, spec, i, j, omega):
        # a +1 in c(n+i, j), j < s, read by M' and by the terms of h_i alike
        want = hankel_det(spec, omega)
        real, at = hankel.inverse_motzkin_entry, (spec.n + i, j)
        monkeypatch.setattr(
            hankel, "inverse_motzkin_entry", lambda m, k, om: real(m, k, om) + ((m, k) == at)
        )
        try:
            got = hankel_closed(spec, omega)
        except InexactDivision:
            return
        assert got != want


# the one nonzero of alpha, beta: an int in [-3, 3] or a constant OmegaPoly
parity_scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(lambda a: OmegaPoly([a])),
).filter(bool)


class TestParity:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 24),
        shift=st.integers(0, 2),
        scalar=parity_scalars,
        pure_beta=st.booleans(),
    )
    def test_matches_remainder_sequence_and_bareiss(self, n, shift, scalar, pure_beta):
        alpha, beta = (0, scalar) if pure_beta else (scalar, 0)
        spec = HankelSpec(n, shift=shift, alpha=alpha, beta=beta)
        e = hankel._parity(spec)
        assert e == n * (shift + pure_beta) % 2
        det = hankel_det(spec, W)
        assert det == hankel._remainder_det(spec, W)
        assert det == det_fraction_free(hankel_matrix(spec))
        # det = w^e R(w^2)
        assert all(k % 2 == e for k, a in enumerate(det.coeffs) if a)

    @pytest.mark.parametrize(
        "spec, e",
        [
            (HankelSpec(5), 0),
            (HankelSpec(5, shift=1), 1),
            (HankelSpec(4, shift=1, alpha=OmegaPoly([-2])), 0),
            (HankelSpec(3, shift=2, alpha=0, beta=2), 1),
            (HankelSpec(3, shift=1, alpha=0, beta=1), 0),
            (HankelSpec(3, alpha=1, beta=1), None),
            (HankelSpec(3, alpha=W, beta=0), None),
            (HankelSpec(3, alpha=0, beta=OmegaPoly([0, 1])), None),
        ],
    )
    def test_parity_exponent(self, spec, e):
        assert hankel._parity(spec) == e

    @pytest.mark.parametrize(
        "spec", [HankelSpec(8, shift=1), HankelSpec(7, alpha=0, beta=1)], ids=["e0", "e1"]
    )
    def test_planted_sequence_term_raises_inexact_division(self, monkeypatch, spec):
        # a constant +1 in c[5] breaks det(-w) = (-1)^e det(w); the negative
        # check weight's Newton coefficient (or the division by x^e) shows it
        _plant_sequence_term(monkeypatch)
        with pytest.raises(InexactDivision):
            hankel_det(spec, W)

    def test_parity_break_at_the_check_weight_raises(self, monkeypatch):
        # the check weight is negative: a value there of the wrong parity,
        # (-1)^(e+1) det(|x|), must not pass
        spec = HankelSpec(6, shift=2)
        real, checked = hankel._remainder_det, []

        def mirrored(spec, omega, skip_gap=False):
            if omega < 0:
                checked.append(omega)
                return -real(spec, -omega, skip_gap)
            return real(spec, omega, skip_gap)

        monkeypatch.setattr(hankel, "_remainder_det", mirrored)
        with pytest.raises(InexactDivision):
            hankel_det(spec, W)
        assert checked == [-7]

    @pytest.mark.parametrize("n, want", [(2, -1), (3, 0), (4, 1), (6, -1)])
    def test_all_gap_spec_falls_back_to_bareiss(self, monkeypatch, n, want):
        # (-w, 1) has c[0] = -w + M_1 = 0: every weight is a gap.  At most
        # bound + 2 are skipped, then Bareiss takes each gap weight, at an int.
        spec = HankelSpec(n, alpha=-W, beta=1)
        size = hankel._degree_bound(spec) + 2
        real, runs = hankel._remainder_det, []

        def counted(spec, omega, skip_gap=False):
            runs.append(omega)
            assert len(runs) <= 2 * size, "the gap skip has no budget"
            return real(spec, omega, skip_gap)

        monkeypatch.setattr(hankel, "_remainder_det", counted)
        bareiss, seen = hankel.det_fraction_free, []

        def typed(m):
            seen.append({type(e) for row in m for e in row})
            return bareiss(m)

        monkeypatch.setattr(hankel, "det_fraction_free", typed)
        det = hankel_det(spec, W)
        assert len(runs) == 2 * size
        assert seen == [{int}] * size
        assert det == bareiss(hankel_matrix(spec)) == want


# what a library caller might put in a HankelSpec field: ints in and out of
# range, bools, floats, None, strings and polynomials in w
loose_fields = st.one_of(
    st.integers(-3, 6),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5, -1.5]),
    st.none(),
    st.sampled_from(["", "2", "w"]),
    st.lists(st.integers(-2, 2), max_size=3).map(OmegaPoly),
)
# and as the weight: W, ints, bools, floats, None and polynomials other than W
loose_weights = st.one_of(
    st.just(W),
    st.integers(-3, 4),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=3).map(OmegaPoly).filter(lambda p: p != W),
)


class TestInputContract:
    """hankel_det and hankel_closed return the weight's kind of scalar or raise ValueError."""

    # each field and the weight are drawn half from their own domain, so that
    # about one example in ten builds a spec at a weight the engines take
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 6), loose_fields),
        shift=st.one_of(st.integers(0, 2), loose_fields),
        alpha=st.one_of(hankel_scalars, loose_fields),
        beta=st.one_of(hankel_scalars, loose_fields),
        omega=st.one_of(st.just(W), st.integers(-3, 4), loose_weights),
    )
    @example(n=3, shift=1, alpha=2, beta=0, omega=OmegaPoly([3]))
    @example(n=2, shift=0, alpha=1, beta=1, omega=1.0)
    @example(n=True, shift=True, alpha=W, beta=False, omega=True)
    def test_value_of_the_weights_kind_or_value_error(self, n, shift, alpha, beta, omega):
        kind = OmegaPoly if omega is W else int
        for engine in (hankel_det, hankel_closed):
            try:
                value = engine(HankelSpec(n, shift=shift, alpha=alpha, beta=beta), omega)
            except ValueError:
                continue
            assert isinstance(value, kind), (engine.__name__, value)
