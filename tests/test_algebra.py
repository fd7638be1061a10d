"""Exact algebra layer: scalars, series, rational expansion."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathenum.algebra import (
    OP_ONE,
    InexactDivision,
    NonUnitConstant,
    OmegaPoly,
    RationalGF,
    TPoly,
    TSeries,
    W,
    _convolve,
    _div_exact,
    _quotient,
    binom_general,
)
from pathenum.hankel import det_fraction_free
from pathenum.matrices import TriMatrix
from conftest import eval_omega, random_opoly, truncate

opolys = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(OmegaPoly)


class TestOmegaPoly:
    def test_difference_of_squares(self):
        assert (W + 1) * (W - 1) == OmegaPoly([-1, 0, 1])

    def test_add(self):
        assert OmegaPoly([2, 0, 1]) + OmegaPoly([0, 0, 1]) == OmegaPoly([2, 0, 2])

    def test_square_of_one_plus_w(self):
        # (1 + w)^2; 1 + w is the compressed Schroeder entry at (2, 0)
        assert (1 + W) * (1 + W) == OmegaPoly([1, 2, 1])

    def test_eval(self):
        p = OmegaPoly([2, 0, 6, 0, 1])
        assert p.evaluate(1) == 9
        assert OmegaPoly([6, 6, 1]).evaluate(1) == 13  # central Delannoy D(2,2)

    def test_eval_at_zero_gives_constant_term(self, rng):
        for _ in range(50):
            p = random_opoly(rng)
            assert p.evaluate(0) == (p.coeffs[0] if p.coeffs else 0)

    def test_canonical_form(self):
        assert OmegaPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert OmegaPoly([0, 0]).coeffs == ()
        assert not OmegaPoly([])
        assert OmegaPoly([0]).degree == -1

    def test_ring_laws_randomized(self):
        # associativity, commutativity, distributivity on >= 1000 cases
        rng = random.Random(12345)
        for _ in range(1000):
            a, b, c = (random_opoly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_series_ring_laws_randomized(self):
        rng = random.Random(54321)
        for _ in range(1000):
            a, b, c = (
                TSeries([random_opoly(rng, max_deg=2, max_abs=5) for _ in range(4)], 3)
                for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_exact_div(self):
        assert ((W + 1) * (W - 1)).exact_div(W - 1) == W + 1
        with pytest.raises(InexactDivision):
            (W * W).exact_div(W + 2)
        with pytest.raises(InexactDivision):
            OmegaPoly([1, 1]).exact_div_int(2)
        assert OmegaPoly([2, -4]).exact_div_int(2) == OmegaPoly([1, -2])

    def test_rendering(self):
        assert str(OmegaPoly([2, 0, 6, 0, 1])) == "2 + 6*w^2 + w^4"
        assert str(OmegaPoly([])) == "0"
        assert str(OmegaPoly([-1, 0, 1])) == "-1 + w^2"
        assert str(W) == "w"
        assert str(OmegaPoly([0, 2, 0, -1])) == "2*w - w^3"

    def test_json_roundtrip_big_integers(self):
        p = OmegaPoly([10**40, -(3**50), 0, 7])
        enc = json.loads(json.dumps(p.to_json()))
        assert enc == [str(10**40), str(-(3**50)), "0", "7"]
        assert OmegaPoly(map(int, enc)) == p


class TestTSeries:
    def test_mul_identity(self, rng):
        for _ in range(20):
            a = TSeries([random_opoly(rng) for _ in range(6)], 5)
            one = TSeries([OP_ONE], 5)
            assert (a * one) == a

    def test_motzkin_square_low_coefficients(self):
        # (1 + t + 2t^2 + 4t^3)^2 by hand convolution; the t^3 coefficient
        # 12 is also the weight-1 count of quadrant paths to (4, 1)
        mu1 = TSeries([1, 1, 2, 4], 3)
        assert eval_omega(mu1 * mu1, 0).int_coeffs() == [1, 2, 5, 12]

    def test_one_plus_t_times_one_minus_t(self):
        a = TSeries([1, 1, 0], 2)
        b = TSeries([1, -1, 0], 2)
        assert eval_omega(a * b, 0).int_coeffs() == [1, 0, -1]

    def test_order_is_min_of_operands(self):
        a = TSeries([1] * 6, 5)
        b = TSeries([1] * 4, 3)
        assert (a * b).order == 3
        assert (a + b).order == 3
        assert (a - b).order == 3

    def test_coefficients_beyond_order_unreadable(self):
        a = TSeries([1, 2], 1)
        with pytest.raises(IndexError):
            a.coeff(2)

    def test_inverse_of_chebyshev_denominator(self):
        phi = TSeries([OP_ONE, W, OP_ONE], 5)  # 1 + w t + t^2
        inv = phi.inverse()
        # long division: 1, -w, w^2 - 1, -w^3 + 2w, ...
        assert inv.coeff(0) == OP_ONE
        assert inv.coeff(1) == -W
        assert inv.coeff(2) == OmegaPoly([-1, 0, 1])
        assert inv.coeff(3) == OmegaPoly([0, 2, 0, -1])
        assert eval_omega(inv, 1).int_coeffs() == [1, -1, 0, 1, -1, 0]

    def test_inverse_of_one_minus_t(self):
        inv = TSeries([1, -1] + [0] * 6, 7).inverse()
        assert eval_omega(inv, 0).int_coeffs() == [1] * 8

    def test_inverse_requires_unit_constant(self):
        with pytest.raises(NonUnitConstant):
            TSeries([2, 1], 3).inverse()
        with pytest.raises(NonUnitConstant):
            TSeries([W, 1], 3).inverse()

    def test_inverse_is_two_sided(self, rng):
        one = TSeries([OP_ONE], 6)
        for _ in range(40):
            coeffs = [random_opoly(rng) for _ in range(7)]
            coeffs[0] = OP_ONE if rng.random() < 0.5 else -OP_ONE
            a = TSeries(coeffs, 6)
            inv = a.inverse()
            assert a * inv == one
            assert inv * a == one

    def test_negative_constant_inverse(self):
        a = TSeries([-1, 1, 1], 4)
        assert (a * a.inverse()) == TSeries([OP_ONE], 4)


class TestScalarKinds:
    def test_constants_hash_as_their_int(self):
        assert OmegaPoly([5]) == 5
        assert {OmegaPoly([5]): "five"}[5] == "five"
        assert {5: "five"}[OmegaPoly([5])] == "five"
        assert {0: "zero"}[OmegaPoly([])] == "zero"
        assert hash(OmegaPoly([-1])) == hash(-1)
        assert hash(OmegaPoly([0, 1])) != hash(OmegaPoly([1]))

    def test_equal_containers_of_either_kind_hash_equal(self):
        ints = TSeries([5, 0, -2], 2)
        polys = TSeries([OmegaPoly([5]), OmegaPoly([]), OmegaPoly([-2])], 2)
        assert ints == polys and hash(ints) == hash(polys)
        assert hash(TPoly([1, 2])) == hash(TPoly([OmegaPoly([1]), OmegaPoly([2])]))
        rows = [[1], [-2, 1]]
        ints, polys = TriMatrix(rows), TriMatrix([[OmegaPoly([x]) for x in row] for row in rows])
        assert ints == polys and hash(ints) == hash(polys)

    def test_a_container_holds_one_kind(self):
        assert all(type(c) is int for c in TPoly([1, 0, 3, 0]).coeffs)
        assert all(type(c) is int for c in TSeries([2, -1], 4).coeffs)  # padding too
        assert all(isinstance(c, OmegaPoly) for c in TPoly([1, W]).coeffs)
        assert all(isinstance(c, OmegaPoly) for c in TSeries([0, W], 4).coeffs)
        with pytest.raises(TypeError):
            TPoly([Fraction(1, 2)])
        # a bool counts as the int it equals
        coeffs = TPoly([True, 2]).coeffs
        assert coeffs == (1, 2) and all(type(c) is int for c in coeffs)
        rows = TriMatrix([[True]]).int_rows()
        assert rows == [[1]] and type(rows[0][0]) is int
        det = det_fraction_free([[True, False], [False, True]])
        assert det == 1 and type(det) is int
        assert TPoly([True, W]).coeffs[0].to_json() == ["1"]

    def test_scalar_products_keep_the_kinds(self):
        s = TSeries([1, 2], 1)
        assert all(type(c) is int for c in (s * 3).coeffs)
        assert (s * W).coeffs == (W, 2 * W)
        assert all(type(c) is int for c in (TPoly([1, -1]) * TPoly([1, 1]) ** 2).coeffs)

    def test_int_containers_support_every_method(self):
        s = TSeries([1, 2, 3], 2)
        assert eval_omega(s, 5) == s
        assert s.int_coeffs() == [1, 2, 3]
        assert str(s) == "[1; 2; 3] + O(t^3)"
        assert repr(s) == "TSeries([1, 2, 3], order=2)"
        assert TSeries([1, -1], 3).inverse().coeffs == (1, 1, 1, 1)
        p = TPoly([1, -2, 0])
        assert repr(p) == "TPoly([1, -2])" and str(p) == "[1, -2]"
        assert p.coeff(5) == 0 and p.shift(2).coeffs == (0, 0, 1, -2)
        assert 1 - TPoly([1, 1]) == TPoly([0, -1])
        assert 1 - TSeries([1, 1], 2) == TSeries([0, -1, 0], 2)

    def test_exact_division_of_either_kind(self):
        assert _div_exact(12, 4) == 3
        assert _div_exact(OmegaPoly([4, 8]), 4) == OmegaPoly([1, 2])
        assert _div_exact(OmegaPoly([-1, 0, 1]), W + 1) == W - 1
        for a, b in ((13, 4), (OmegaPoly([4, 9]), 4), (OmegaPoly([1, 0, 1]), W + 1)):
            with pytest.raises(InexactDivision):
                _div_exact(a, b)


class TestRationalGF:
    def test_banded_schroder_two(self):
        r = RationalGF(TPoly([1, -1]), TPoly([1, -3, 1]))
        assert eval_omega(r.expand(4), 0).int_coeffs() == [1, 2, 5, 13, 34]

    def test_banded_motzkin_four(self):
        r = RationalGF(TPoly([1, -3, 1, 1]), TPoly([1, -4, 3, 2, -1]))
        got = eval_omega(r.expand(9), 0).int_coeffs()
        assert got == [1, 1, 2, 4, 9, 21, 51, 127, 322, 826]

    def test_p_over_p_is_one(self):
        p = TPoly([OP_ONE, W, OmegaPoly([3])])
        assert RationalGF(p, p).expand(6) == TSeries([OP_ONE], 6)

    def test_requires_unit_denominator_constant(self):
        with pytest.raises(NonUnitConstant):
            RationalGF(TPoly([1]), TPoly([2, 1])).expand(3)

    def test_denominator_times_expansion_is_numerator(self, rng):
        for _ in range(30):
            num = TPoly([random_opoly(rng) for _ in range(3)])
            den_c = [random_opoly(rng) for _ in range(3)]
            den_c[0] = OP_ONE if rng.random() < 0.5 else -OP_ONE
            den = TPoly(den_c)
            n = 8
            expansion = RationalGF(num, den).expand(n)
            assert den.to_series(n) * expansion == num.to_series(n)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           st.lists(st.integers(-5, 5), min_size=0, max_size=3),
           st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=120, deadline=None)
    def test_truncation_consistency(self, den_tail, num, n1, n2):
        lo, hi = sorted((n1, n2))
        r = RationalGF(TPoly(num), TPoly([1] + den_tail[1:]))
        assert truncate(r.expand(hi), lo) == r.expand(lo)


class TestSubstituteNegT:
    def test_delannoy_polynomial_example(self):
        d3 = TPoly([1, 5, 5, 1])
        assert d3.at_neg_t() == TPoly([1, -5, 5, -1])

    def test_even_polynomial_unchanged(self):
        p = TPoly([2, 0, 3, 0, 1])
        assert p.at_neg_t() == p

    @given(st.lists(st.integers(-9, 9), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_involution(self, coeffs):
        p = TPoly(coeffs)
        assert p.at_neg_t().at_neg_t() == p


class TestBinomGeneral:
    def test_half_integer(self):
        assert binom_general(Fraction(1, 2), 1) == Fraction(1, 2)
        assert binom_general(Fraction(3, 2), 2) == Fraction(3, 8)
        assert binom_general(Fraction(1, 2), -1) == 0

    def test_matches_integer_binomial(self):
        for n in range(10):
            for k in range(n + 2):
                expected = Fraction(math.comb(n, k)) if k <= n else Fraction(0)
                assert binom_general(n, k) == expected

    def test_k_zero(self):
        assert binom_general(Fraction(-7, 3), 0) == 1


class TestPowers:
    def test_series_power_makes_no_extra_products(self, monkeypatch):
        # square-and-multiply stops at the top bit: s**1 is one product
        # (1 * s) and s**2 is two (s * s, then 1 * s^2)
        calls = [0]
        real = TSeries.__mul__

        def counted(self, other):
            calls[0] += 1
            return real(self, other)

        monkeypatch.setattr(TSeries, "__mul__", counted)
        s = TSeries([OP_ONE, W, OmegaPoly([2])], 6)
        for n, products in ((1, 1), (2, 2)):
            calls[0] = 0
            s**n
            assert calls[0] == products, n

    def test_power_is_repeated_product(self, rng):
        for _ in range(5):
            pairs = (
                (random_opoly(rng), OP_ONE),
                (TPoly([random_opoly(rng) for _ in range(3)]), TPoly([1])),
                (TSeries([random_opoly(rng) for _ in range(5)], 4), TSeries([1], 4)),
            )
            for x, one in pairs:
                product = one
                for n in range(7):
                    assert x**n == product, (x, n)
                    product = product * x
                with pytest.raises(ValueError):
                    x**-1


def naive_convolve(a, b, length):
    out = [0] * length
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < length:
                out[i + j] = out[i + j] + x * y
    return out


def naive_quotient(num, den, order):
    out = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            acc = acc - den[k] * out[n - k]
        out.append(den[0] * acc)
    return out


# one operand of ints, the other of OmegaPolys, with zeros among both
int_rows = st.lists(st.sampled_from([0, 0, 1, -1, 2, -7, 10**15]), max_size=6)
poly_rows = st.lists(opolys, max_size=6)


class TestMixedKinds:
    @settings(max_examples=150, deadline=None)
    @given(int_rows, poly_rows, st.integers(0, 12), st.booleans())
    def test_convolve_is_the_double_loop(self, ints, polys, length, ints_first):
        a, b = (ints, polys) if ints_first else (polys, ints)
        got = _convolve(tuple(a), tuple(b), length)
        assert got == naive_convolve(a, b, length)
        if a and b:  # an OmegaPoly among the operands: every coefficient is one
            assert all(isinstance(c, OmegaPoly) for c in got)

    @settings(max_examples=150, deadline=None)
    @given(int_rows, poly_rows, st.sampled_from([1, -1]), st.integers(0, 10), st.booleans())
    def test_quotient_is_the_recursion(self, ints, polys, unit, order, ints_num):
        # the numerator of one kind, the denominator (a container: one kind) of the other
        if ints_num:
            num, den = ints, [OmegaPoly([unit])] + polys
        else:
            num, den = polys, [unit] + ints
        got = _quotient(tuple(num), tuple(den), order)
        assert got == naive_quotient(num, den, order)
        if polys:
            assert all(isinstance(c, OmegaPoly) for c in got)
