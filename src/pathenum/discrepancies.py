"""Registry of known discrepancies between printed source tables and exact counts.

Published tables of these arrays contain a few transcription slips and one
formula that does not match its own displayed matrix.  Each record below
names the location, the value as printed, and the exact resolution, and
carries a machine check that PROVES the resolution from the brute-force
oracle (or by exact determinant evaluation) instead of trusting either
printed value.  The CLI prints this registry under --typo-ledger, and the
test suite runs every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import OmegaPoly
from .checks import CheckResult, first_mismatch
from .hankel import HankelSpec, det_fraction_free, hankel_matrix
from .motzkin import banded_motzkin_gf
from .oracle import CountTable, PathSpec, oracle_series
from .schroder import inverse_schroder_entry, inverse_schroder_column_gf


@dataclass(frozen=True)
class Discrepancy:
    key: str
    location: str
    printed: str
    resolved: str
    check: Callable[[], CheckResult]


def _check_grand_mirror() -> CheckResult:
    # The grand table entry at (n, j) = (5, -2) is printed as 20 + 10*w^3,
    # which breaks the mirror symmetry of unrestricted paths; the recursion
    # gives 20*w + 10*w^3, matching the (5, 2) entry.
    table = CountTable(PathSpec.grand(), 5)
    got = table.value(5, -2)
    return first_mismatch((
        ("(5,-2)", got, OmegaPoly([0, 20, 0, 10])),
        ("mirror (5,2)", got, table.value(5, 2)),
    ))


def _check_banded4_tail() -> CheckResult:
    # The height-4 band table lists 323, 835 at n = 8, 9 (weight 1); the
    # accompanying sequence list has 322, 826 (A005207).  The oracle and the
    # rational generating function, both built at weight 1, give 322, 826.
    return first_mismatch((
        ("oracle n=8,9", oracle_series(PathSpec.banded(4), 0, 9, 1).int_coeffs()[8:10], [322, 826]),
        ("generating function n=8,9", banded_motzkin_gf(4, 1).expand(9).int_coeffs()[8:10],
         [322, 826]),
    ))


def _check_inverse_column_gf() -> CheckResult:
    # The column generating function of the inverse compressed Schroeder
    # triangle is printed as ((1-t)/(1+t))^k, which does not reproduce the
    # displayed matrix (at k = 1 its coefficients start 1, -2 where the
    # column starts 0, 1); the validated form is t^k ((1-t)/(1+t))^(k+1).
    return first_mismatch(
        (f"validated form, column {k}", inverse_schroder_column_gf(k, 8).int_coeffs(),
         [inverse_schroder_entry(n, k, 1) if n >= k else 0 for n in range(9)])
        for k in range(4)
    )


def _check_aerated_hankel_delta() -> CheckResult:
    # At weight 0 (pure up/down steps) the determinant of the summed Hankel
    # matrix is claimed to collapse to delta(0,n); exact evaluation gives the
    # period-6 pattern 1, 1, 0, -1, -1, 0, ...  The matrix is built at weight 0.
    pattern = [1, 1, 0, -1, -1, 0]
    return first_mismatch(
        (f"dimension {n}", det_fraction_free(hankel_matrix(HankelSpec(n, alpha=1, beta=1), 0)),
         pattern[n % 6])
        for n in range(1, 13)
    )


REGISTRY = (
    Discrepancy(
        key="grand-mirror",
        location="grand Motzkin table, entry (n, j) = (5, -2)",
        printed="20 + 10*w^3",
        resolved="20*w + 10*w^3 (equal to the mirrored entry at (5, 2))",
        check=_check_grand_mirror,
    ),
    Discrepancy(
        key="banded4-tail",
        location="height-4 band table, n = 8, 9 (weight 1)",
        printed="323, 835",
        resolved="322, 826 (A005207; oracle and generating function agree)",
        check=_check_banded4_tail,
    ),
    Discrepancy(
        key="inverse-column-gf",
        location="column generating function of the inverse compressed Schroeder triangle (weight 1)",
        printed="((1-t)/(1+t))^k",
        resolved="t^k ((1-t)/(1+t))^(k+1) (reproduces the displayed matrix; A080246)",
        check=_check_inverse_column_gf,
    ),
    Discrepancy(
        key="aerated-hankel-delta",
        location="determinant of the summed Hankel matrix at weight 0",
        printed="delta(0, n)",
        resolved="period-6 pattern 1, 1, 0, -1, -1, 0, ...",
        check=_check_aerated_hankel_delta,
    ),
)
