"""The integer coefficient-vector kernels."""

import random

import pytest

from pathenum import kernels


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
