"""Seeded query lists for the three CLI workloads.

Each workload is a fixed deck of query groups (subcommand, family and size
range).  Within a group the sizes are the midpoints of equal strata of the
range (on a log scale for `seq`, `matrix` and `hankel`, so most queries are
small and a few are large), the same for every seed.  In the lower two
thirds of the strata the seed picks the parameters (heights, step lengths,
band heights, Hankel weights) and the output format; the top third, which
carries most of a pass's time, is the same for every seed, output format
included.  The seed also picks the order of the list, and on integer-mix
the weight of each query.

The sizes are not drawn because the latency percentiles of a 120-query
list rest on a few queries each: where one drawn size crosses another, the
90th percentile of verify-sweep moved by 10-20% from seed to seed, and the
median of the mix by about 10%.  With the sizes fixed, runs with different
seeds can be compared.

The program sees only the argv lists returned here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("symbolic-mix", "integer-mix", "verify-sweep")

# Where a query's height j multiplies the work (a column of the Motzkin or
# grand triangle is a power of the Motzkin series), its N is scaled by
# (1 + j) ** -damp so that the size strata stay strata of cost.
SEQ_GROUPS = (
    # (family argv, count, N range, j range, damp)
    (["motzkin"], 12, (2, 140), (0, 4), 0.27),
    (["grand-motzkin"], 12, (2, 140), (0, 4), 0.25),
    (["w-path"], 12, (2, 140), (0, 4), 0.0),
    (["schroder-compressed"], 12, (2, 140), (0, 3), 0.1),
    (["delannoy"], 12, (2, 140), (0, 0), 0.0),
    (["banded", "--family", "motzkin"], 8, (2, 140), (0, 0), 0.0),
    (["banded", "--family", "schroder"], 8, (2, 140), (0, 0), 0.0),
    (["banded", "--family", "w-path"], 8, (2, 140), (0, 0), 0.0),
)
MATRIX_GROUPS = (("motzkin", 5), ("motzkin-inverse", 5), ("schroder-inverse", 4), ("grand", 4))
MATRIX_N = (2, 40)
HANKEL_COUNT = 18
HANKEL_N = (1, 22)
HANKEL_WEIGHTS = ((1, 0), (1, 1), (2, -1), (0, 1))

# verify-sweep: (suite, count, {flag: (lo, hi)}); bounds are strata
# midpoints on a linear scale.
VERIFY_GROUPS = (
    ("lemma", 13, {"--max": (3, 12)}),
    ("orthogonality", 13, {"--max": (3, 12)}),
    ("banded-recursion", 13, {"--k": (1, 10), "--N": (5, 40)}),
    ("first-return", 13, {"--N": (5, 40)}),
    ("delannoy", 13, {"--N": (5, 40)}),
    ("bridge", 13, {"--N": (5, 40)}),
    ("gould", 13, {"--k": (1, 10)}),
    ("theorem-schroeder", 13, {"--k": (2, 10), "--N": (5, 40)}),
)
TYPO_LEDGER_COUNT = 16

FORMATS = ("plain",) * 14 + ("csv",) * 3 + ("json",) * 3


def _fixed(i, count):
    """Whether stratum i is in the top third, where the seed picks nothing."""
    return i >= count - count // 3


def _strata(count, lo, hi, scale):
    """The midpoints of `count` equal strata of [lo, hi] on `scale`
    (math.log or a linear map), ascending."""
    a, b = scale(lo), scale(hi)
    back = math.exp if scale is math.log else (lambda x: x)
    return [back(a + (b - a) * (i + 0.5) / count) for i in range(count)]


def _pick(rng, i, count, choices):
    """A seeded choice in the lower strata, a fixed cycle in the top third."""
    return choices[i % len(choices)] if _fixed(i, count) else rng.choice(choices)


def _fmt(rng, i, count):
    return ["--format", _pick(rng, i, count, FORMATS)]


def _mix(seed: int) -> list:
    rng = random.Random(f"mix:{seed}")
    queries = []
    for family, count, (lo, hi), (jlo, jhi), damp in SEQ_GROUPS:
        for i, size in enumerate(_strata(count, lo, hi, math.log)):
            j = _pick(rng, i, count, range(jlo, jhi + 1))
            argv = ["seq", family[0], "--N", str(max(lo, round(size * (1 + j) ** -damp)))]
            argv += family[1:]
            if j:
                argv += ["--j", str(j)]
            if "w-path" in family:
                argv += ["--w", str(_pick(rng, i, count, (2, 3, 4)))]
            if family[0] == "banded":
                argv += ["--k", str(_pick(rng, i, count, range(1, 9)))]
            queries.append(argv + _fmt(rng, i, count))
    for kind, count in MATRIX_GROUPS:
        for i, size in enumerate(_strata(count, *MATRIX_N, math.log)):
            queries.append(["matrix", kind, "--n", str(round(size))] + _fmt(rng, i, count))
    for i, size in enumerate(_strata(HANKEL_COUNT, *HANKEL_N, math.log)):
        alpha, beta = _pick(rng, i, HANKEL_COUNT, HANKEL_WEIGHTS)
        argv = ["hankel", "--n", str(round(size)), "--alpha", str(alpha), "--beta", str(beta)]
        if (alpha, beta) == (1, 0):
            argv += ["--shift", str(_pick(rng, i, HANKEL_COUNT, (0, 1, 2)))]
        queries.append(argv + _fmt(rng, i, HANKEL_COUNT))
    rng.shuffle(queries)
    return queries


def _verify(seed: int) -> list:
    rng = random.Random(f"verify:{seed}")
    queries = []
    for suite, count, bounds in VERIFY_GROUPS:
        # the flags of a suite grow together, so every pass holds one query
        # with all of its bounds at their largest
        columns = {flag: [min(hi, int(x)) for x in _strata(count, lo, hi + 1, float)]
                   for flag, (lo, hi) in bounds.items()}
        for i in range(count):
            argv = ["verify", suite]
            for flag, vals in columns.items():
                argv += [flag, str(vals[i])]
            queries.append(argv + _fmt(rng, i, count))
    queries += [["--typo-ledger"] for _ in range(TYPO_LEDGER_COUNT)]
    rng.shuffle(queries)
    return queries


def generate(workload: str, seed: int) -> list:
    """The argv lists of one pass of `workload` for `seed`."""
    if workload == "symbolic-mix":
        return _mix(seed)
    if workload == "integer-mix":
        rng = random.Random(f"omega:{seed}")
        return [argv + ["--omega", str(rng.randint(1, 4))] for argv in _mix(seed)]
    if workload == "verify-sweep":
        return _verify(seed)
    raise ValueError(f"unknown workload {workload!r}")


def digest(queries: list) -> str:
    """Short SHA-256 of a query list, to tell lists apart in the record."""
    return hashlib.sha256(json.dumps(queries).encode()).hexdigest()[:16]
