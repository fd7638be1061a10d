"""The integer coefficient-vector kernels."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathenum import kernels

# normalized vectors: signed coefficients, zeros inside, monomials, the empty one
vectors = st.one_of(
    st.lists(st.integers(-10**12, 10**12), max_size=7).map(kernels.vnorm),
    st.lists(st.sampled_from([0, 0, 1, -1, 3]), max_size=7).map(kernels.vnorm),
    st.tuples(st.integers(0, 5), st.integers(-9, 9)).map(
        lambda m: kernels.vnorm([0] * m[0] + [m[1]])),
)


def test_vnorm_strips_trailing_zeros():
    assert kernels.vnorm([1, 2, 0, 0]) == [1, 2]
    assert kernels.vnorm([0, 0]) == []
    assert kernels.vnorm([]) == []


def test_vmul_basic():
    assert kernels.vmul([1, 1], [1, -1]) == [1, 0, -1]
    assert kernels.vmul([], [1, 2]) == []


def test_vdivexact_quotient_and_sentinel():
    prod = kernels.vmul([3, -1, 2], [5, 7])
    assert kernels.vdivexact(prod, [5, 7]) == [3, -1, 2]
    assert kernels.vdivexact([1, 1], [2]) is None  # non-integral quotient
    assert kernels.vdivexact([1, 1, 1], [1, 1]) is None  # nonzero remainder
    assert kernels.vdivexact([], [1, 1]) == []
    with pytest.raises(ZeroDivisionError):
        kernels.vdivexact([1], [])


def test_vdivexact_int():
    assert kernels.vdivexact_int([2, -4, 6], 2) == [1, -2, 3]
    assert kernels.vdivexact_int([3], 2) is None


def test_vdivexact_undoes_vmul_on_random_inputs():
    rng = random.Random(7)
    for trial in range(300):
        a = kernels.vnorm([rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 10))])
        b = kernels.vnorm([rng.randint(-99, 99) for _ in range(rng.randint(1, 6))]) or [1]
        prod = kernels.vmul(a, b)
        assert kernels.vdivexact(prod, b) == a, trial
        # prod + t^i is a multiple of b only when b is +-t^k with k <= i
        if abs(b[-1]) > 1 or any(b[:-1]):
            noisy = list(prod) or [0]
            noisy[rng.randrange(len(noisy))] += 1
            assert kernels.vdivexact(kernels.vnorm(noisy), b) is None, trial


def naive_product(a, b):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            res[i + j] += x * y
    return res


@settings(max_examples=300, deadline=None)
@given(vectors, vectors)
def test_vmul_and_vdot_are_the_double_loop_product(a, b):
    # the product of two normalized vectors has a nonzero leading coefficient
    want = naive_product(a, b)
    assert kernels.vmul(a, b) == want
    assert kernels.vdot([(a, b)]) == want


def fold_vdot(pairs):
    acc = []
    for a, b in pairs:
        acc = kernels.vadd(acc, kernels.vmul(a, b))
    return acc


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(vectors, vectors), max_size=12))
def test_vdot_is_the_fold_of_vadd_over_vmul(pairs):
    got = kernels.vdot(pairs)
    assert got == fold_vdot(pairs)
    assert got == kernels.vnorm(got)  # normalized: no trailing zero


@settings(max_examples=100, deadline=None)
@given(vectors, vectors, st.lists(st.tuples(vectors, vectors), max_size=4))
def test_vdot_of_a_cancelling_total_is_empty(a, b, rest):
    # rest, a*b, then the negation of both: every coefficient cancels
    pairs = rest + [(a, b)] + [(kernels.vneg(x), y) for x, y in rest] + [(a, kernels.vneg(b))]
    assert kernels.vdot(pairs) == []


def test_vdot_edge_cases():
    assert kernels.vdot([]) == []
    assert kernels.vdot([([], [1, 2]), ([3], [])]) == []
    assert kernels.vdot([([2, 0, 1], [1, 1])]) == kernels.vmul([2, 0, 1], [1, 1])
    assert kernels.vdot([([0, 1], [5]), ([1], [0, -5]), ([1], [7])]) == [7]
    assert kernels.vdot([([1, 1], [1, -1]), ([-1], [1, 0, -1])]) == []
    assert kernels.vdot(iter([([0, 0, -1], [2, 3])])) == [0, 0, -2, -3]  # any iterable
