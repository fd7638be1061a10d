"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Every comparison is exact (integer/polynomial equality); there
are no tolerances anywhere.
"""

import random

from pathenum.algebra import OP_ONE, OmegaPoly, TPoly, W
from pathenum import discrepancies
from pathenum.hankel import (
    HankelSpec,
    hankel_matrix,
    hankel_recursion_check,
    leading_minor_dets,
    shifted_hankel_closed,
)
from pathenum.motzkin import (
    banded_motzkin_gf,
    banded_motzkin_recursion_check,
    first_return_check,
    grand_matrix,
    inverse_motzkin_entry,
    inverse_motzkin_matrix,
    motzkin_matrix,
    motzkin_series,
)
from pathenum.oracle import CountTable, PathSpec, compressed_series, oracle_series
from pathenum.schroder import (
    band_times_s,
    banded_schroder_gf,
    banded_w_gf,
    compressed_p_poly,
    delannoy_number,
    delannoy_poly,
    delannoy_recursion_check,
    delannoy_s_bridge_check,
    gould_identity_check,
    inverse_schroder_entry,
    inverse_schroder_matrix,
    inverse_schroder_poly,
    schroder_matrix_compressed,
    theorem_schroeder_check,
    w_series,
)
from conftest import (
    as_int_rows, banded_schroder_gf_via_s, eval_omega, identity, inverse_motzkin_entry_rec,
)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_motzkin_sequence():
    mu = motzkin_series(7)
    assert eval_omega(mu, 1).int_coeffs() == [1, 1, 2, 4, 9, 21, 51, 127]
    assert list(mu.coeffs[:6]) == [
        OmegaPoly([1]),
        W,
        OmegaPoly([1, 0, 1]),
        OmegaPoly([0, 3, 0, 1]),
        OmegaPoly([2, 0, 6, 0, 1]),
        OmegaPoly([0, 10, 0, 10, 0, 1]),
    ]
    report(1, "Motzkin sequence, weight 1 prefix and symbolic row")


def test_criterion_02_inverse_motzkin():
    assert as_int_rows(eval_omega(inverse_motzkin_matrix(5), 1)) == [
        [1],
        [-1, 1],
        [0, -2, 1],
        [1, 1, -3, 1],
        [-1, 2, 3, -4, 1],
    ]
    n = 40
    m = motzkin_matrix(n)
    inv = m.inverse_unit_lower()
    assert m * inv == identity(n)
    inv41 = motzkin_matrix(41).inverse_unit_lower()
    for i in range(41):
        for j in range(i + 1):
            closed = inverse_motzkin_entry(i, j)
            assert closed == inverse_motzkin_entry_rec(i, j), (i, j)
            assert closed == inv41.rows[i][j], (i, j)
    report(2, "inverse triangle display, M*m = I at n=40, three routes to i=40")


def test_criterion_03_banded_motzkin():
    prefixes = {
        1: [1] * 21,
        2: [1] + [2**n for n in range(20)],
        3: [1, 1, 2, 4, 9, 21, 50, 120],
        4: [1, 1, 2, 4, 9, 21, 51, 127, 322, 826],
    }
    for k, want in prefixes.items():
        got = eval_omega(banded_motzkin_gf(k).expand(len(want) - 1), 1).int_coeffs()
        assert got == want, k
    for k in range(1, 9):
        formula = banded_motzkin_gf(k).expand(40)
        assert formula == oracle_series(PathSpec.banded(k), 0, 40), k
    report(3, "banded counts k=1..4 prefixes; symbolic oracle equality k<=8, n<=40")


def test_criterion_04_hankel():
    ones = leading_minor_dets(hankel_matrix(HankelSpec(10)))
    assert ones == [OP_ONE] * 10
    rng = random.Random(20110531)
    pairs = []
    while len(pairs) < 20:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if (a, b) != (0, 0):
            pairs.append((a, b))
    for a, b in pairs:
        spec = HankelSpec(10, alpha=OmegaPoly([a]), beta=OmegaPoly([b]))
        minors = leading_minor_dets(hankel_matrix(spec))
        for n in range(1, 11):
            assert minors[n - 1] == shifted_hankel_closed(n, a, b), (a, b, n)
    for n in range(21):
        assert shifted_hankel_closed(n, 1, 1).evaluate(1) == n + 1
    assert hankel_recursion_check(10)
    report(4, "Hankel: det=1 to n=10, closed form vs Bareiss (20 pairs), n+1 law, recursion")


def test_criterion_05_compressed_schroder():
    assert as_int_rows(eval_omega(schroder_matrix_compressed(5), 1)) == [
        [1],
        [2, 1],
        [6, 4, 1],
        [22, 16, 6, 1],
        [90, 68, 30, 8, 1],
    ]
    assert as_int_rows(eval_omega(inverse_schroder_matrix(5), 1)) == [
        [1],
        [-2, 1],
        [2, -4, 1],
        [-2, 8, -6, 1],
        [2, -12, 18, -8, 1],
    ]
    inv = inverse_schroder_matrix(30)
    for k in range(30):
        for j in range(k + 1):
            assert inverse_schroder_entry(k, j) == inv.rows[k][j], (k, j)
    assert eval_omega(inverse_schroder_poly(4), 1) == TPoly([1, -8, 18, -12, 2])
    report(5, "compressed triangle and inverse displays; closed form to k=30; s_4")


def test_criterion_06_banded_schroder():
    want = [
        1, 2, 6, 22, 89, 377, 1630, 7110, 31130, 136513, 599041,
        2629418, 11542854, 50674318, 222470009, 976694489, 4287928678,
    ]
    route_d = banded_schroder_gf(4).expand(16).int_coeffs()
    route_s = banded_schroder_gf_via_s(4).expand(16).int_coeffs()
    route_p = eval_omega(banded_w_gf(4, 2).expand(32), 1).int_coeffs()[::2]
    assert route_d == want
    assert route_s == want
    assert route_p == want
    for k in range(1, 7):
        d = banded_schroder_gf(k).expand(40).int_coeffs()
        s = banded_schroder_gf_via_s(k).expand(40).int_coeffs()
        p = eval_omega(banded_w_gf(k, 2).expand(80), 1).int_coeffs()[::2]
        oracle = eval_omega(compressed_series(0, 40, band=k), 1).int_coeffs()
        assert d == s == p == oracle, k
        sym = banded_w_gf(k, 2).expand(40)
        assert sym == oracle_series(PathSpec.banded(k, w=2), 0, 40), k
    report(6, "banded Schroeder k=4 three routes through t^16; oracle equality k<=6, n<=40")


def test_criterion_07_theorem_schroeder():
    s3 = eval_omega(inverse_schroder_poly(3), 1)
    coeffs = (banded_schroder_gf(4).expand(16) * s3).int_coeffs()
    assert coeffs[:4] == [1, -4, 2, 0]  # principal part: s_2 padded to length 4
    assert coeffs[4:] == [
        1, 7, 36, 168, 756, 3353, 14783, 65016, 285648, 1254456,
        5508097, 24183271, 106173180,
    ]
    for k in range(2, 7):
        assert theorem_schroeder_check(k, 40, band_times_s(k, 40)), k
    report(7, "principal/regular split at k=4; calibrated band-column identity k=2..6, order 40")


def test_criterion_08_delannoy():
    assert delannoy_recursion_check(15)
    assert delannoy_number(3, 3).evaluate(1) == 63
    assert delannoy_number(2, 2).evaluate(1) == 13
    d = [delannoy_poly(k) for k in range(13)]
    t = TPoly([0, 1])
    for m in range(13):
        acc = d[m]
        if m >= 1:
            acc = acc - d[m - 1] - t * d[m - 1]
        if m >= 2:
            acc = acc - (t * W) * d[m - 2]
        assert acc == (TPoly([1]) if m == 0 else TPoly([])), m
    assert delannoy_s_bridge_check(20)
    for k in range(26):
        assert eval_omega(compressed_p_poly(k), 1) == eval_omega(delannoy_poly(k), 1).at_neg_t(), k
    for k in range(21):
        for m in range(k // 2 + 1):
            assert gould_identity_check(k, m), (k, m)
    report(8, "Delannoy recursion, values, bivariate GF, bridges, Gould identity")


def test_criterion_09_property_suite():
    for w in (1, 2, 3):
        assert w_series(w, 30) == oracle_series(PathSpec.quadrant(w), 0, 30), w
    grand = CountTable(PathSpec.grand(), 30)
    for n in range(31):
        for j in range(n + 1):
            assert grand.value(n, j) == grand.value(n, -j), (n, j)
    g = grand_matrix(16)
    for n in range(15):
        for j in range(n + 2):
            rhs = grand.value(n, j) + W * grand.value(n, j + 1) + grand.value(n, j + 2)
            assert g.entry(n + 1, j + 1) == rhs, (n, j)
    m = motzkin_matrix(16)
    quad = CountTable(PathSpec.quadrant(), 16)
    for n in range(1, 16):
        for j in range(n + 1):
            want = quad.value(n - 1, j + 1) + W * quad.value(n - 1, j) + quad.value(n - 1, j - 1)
            assert m.entry(n, j) == want, (n, j)
    assert first_return_check(30)
    for k in range(1, 7):
        assert banded_motzkin_recursion_check(k, 30), k
    report(9, "oracle-vs-formula w=1..3, mirror symmetry, step recurrences, band recursion")


def test_criterion_10_typo_ledger():
    assert len(discrepancies.REGISTRY) >= 2
    keys = {d.key for d in discrepancies.REGISTRY}
    assert {"grand-mirror", "banded4-tail"} <= keys
    for d in discrepancies.REGISTRY:
        result = d.check()
        assert result, (d.key, result.detail)
    report(10, "discrepancy registry non-empty; both flagged table slips proven by oracle")
