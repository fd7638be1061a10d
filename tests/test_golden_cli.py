"""Golden CLI outputs: stdout and exit code, byte for byte, for a fixed argv list.

The golden file pins every `seq` family (with column heights), the banded
families, every `matrix` kind, `hankel` at shifts 0-2 (with (alpha, beta) =
(1, 0) and with other pairs), every `verify` suite (at small and at default
bounds), the typo ledger, symbolic and integer weights, and the plain, csv
and json formats.  To re-record it after an
intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import argparse
import contextlib
import io
import json
import pathlib

import pytest

from pathenum import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"

FORMATS = (["--format", "plain"], ["--format", "csv"], ["--format", "json"])

ARGV = (
    # seq: every family, column heights, both weight modes
    [["seq", "motzkin", "--N", "8"] + f for f in FORMATS]
    + [
        ["seq", "motzkin", "--N", "8", "--omega", "1"],
        ["seq", "motzkin", "--N", "6", "--omega", "3", "--format", "json"],
        ["seq", "motzkin", "--N", "6", "--j", "1"],
        ["seq", "motzkin", "--N", "5", "--j", "3", "--format", "json"],
        ["seq", "motzkin", "--N", "7", "--j", "2", "--omega", "2", "--format", "csv"],
        ["seq", "grand-motzkin", "--N", "6"],
        ["seq", "grand-motzkin", "--N", "6", "--omega", "2"],
        ["seq", "grand-motzkin", "--N", "5", "--j", "2", "--format", "json"],
        ["seq", "grand-motzkin", "--N", "6", "--j", "1", "--omega", "1", "--format", "csv"],
    ]
    + [["seq", "w-path", "--w", str(w), "--N", "9"] for w in (1, 2, 3)]
    + [["seq", "w-path", "--w", str(w), "--j", str(j), "--N", "8"]
       for w in (1, 2, 3) for j in (1, 2)]
    + [
        ["seq", "w-path", "--w", "3", "--j", "2", "--N", "10", "--omega", "4", "--format", "json"],
        ["seq", "w-path", "--w", "2", "--j", "1", "--N", "9", "--omega", "1", "--format", "csv"],
        ["seq", "schroder-compressed", "--N", "6"],
        ["seq", "schroder-compressed", "--N", "6", "--omega", "1"],
        ["seq", "schroder-compressed", "--N", "5", "--j", "1", "--format", "json"],
        ["seq", "schroder-compressed", "--N", "5", "--j", "3", "--omega", "2"],
        ["seq", "delannoy", "--N", "6"],
        ["seq", "delannoy", "--N", "6", "--omega", "1", "--format", "csv"],
    ]
    # banded: all three families
    + [["seq", "banded", "--family", "motzkin", "--k", str(k), "--N", "9"] for k in (1, 2, 4)]
    + [
        ["seq", "banded", "--family", "motzkin", "--k", "3", "--N", "10", "--omega", "1"],
        ["seq", "banded", "--family", "motzkin", "--k", "5", "--N", "8", "--format", "json"],
        ["seq", "banded", "--family", "schroder", "--k", "1", "--N", "6"],
        ["seq", "banded", "--family", "schroder", "--k", "3", "--N", "7"],
        ["seq", "banded", "--family", "schroder", "--k", "4", "--N", "10", "--omega", "1"],
        ["seq", "banded", "--family", "schroder", "--k", "2", "--N", "6", "--omega", "3",
         "--format", "csv"],
        ["seq", "banded", "--family", "w-path", "--w", "2", "--k", "3", "--N", "10"],
        ["seq", "banded", "--family", "w-path", "--w", "3", "--k", "2", "--N", "10",
         "--format", "json"],
        ["seq", "banded", "--family", "w-path", "--w", "1", "--k", "4", "--N", "9",
         "--omega", "2"],
    ]
    # seq usage errors
    + [
        ["seq", "motzkin", "--N", "-1"],
        ["seq", "motzkin", "--N", "3", "--j", "-1"],
        ["seq", "w-path", "--w", "0", "--N", "3"],
        ["seq", "banded", "--N", "4"],
        ["seq", "banded", "--k", "2", "--N", "4", "--j", "1"],
        ["seq", "banded", "--family", "w-path", "--w", "0", "--k", "2", "--N", "4"],
        ["seq", "delannoy", "--N", "3", "--j", "1"],
        ["seq", "motzkin", "--N", "3", "--omega", "pi"],
    ]
    # matrix: every kind
    + [["matrix", kind, "--n", "4"] + f
       for kind in ("motzkin", "motzkin-inverse", "schroder", "schroder-inverse", "grand")
       for f in FORMATS]
    + [["matrix", kind, "--n", "5", "--omega", "1"] + f
       for kind in ("motzkin", "motzkin-inverse", "schroder", "schroder-inverse", "grand")
       for f in FORMATS]
    + [["matrix", "grand", "--n", "4", "--omega", "2"], ["matrix", "motzkin", "--n", "0"]]
    # hankel: shifts 0-2, weighted sums, both weight modes
    + [["hankel", "--n", "5", "--shift", str(s)] + f for s in (0, 1, 2) for f in FORMATS]
    + [["hankel", "--n", "4", "--shift", str(s), "--omega", "2"] for s in (0, 1, 2)]
    + [
        ["hankel", "--n", "5", "--alpha", "1", "--beta", "1", "--omega", "1"],
        ["hankel", "--n", "4", "--alpha", "2", "--beta", "-1", "--format", "json"],
        ["hankel", "--n", "4", "--alpha", "0", "--beta", "1", "--format", "csv"],
        ["hankel", "--n", "3", "--shift", "1", "--alpha", "2"],
        ["hankel", "--n", "3", "--alpha", "0", "--beta", "0"],
        ["hankel", "--n", "0"],
    ]
    # verify and the ledger
    + [
        ["verify", "lemma", "--max", "4"],
        ["verify", "orthogonality", "--max", "5", "--format", "csv"],
        ["verify", "banded-recursion", "--k", "3", "--N", "12", "--format", "json"],
        ["verify", "first-return", "--N", "10"],
        ["verify", "delannoy", "--N", "6"],
        ["verify", "bridge", "--N", "6"],
        ["verify", "gould", "--k", "8"],
        ["verify", "theorem-schroeder", "--k", "3", "--N", "8"],
        ["verify", "theorem-schroeder", "--k", "1"],
        ["verify", "all", "--max", "4", "--k", "3", "--N", "8", "--format", "json"],
        ["--typo-ledger"],
        [],
    ]
    # the band-polynomial family, the inverse Schroeder rows and the bridge suite
    + [
        ["verify", "bridge", "--N", "30"],
        ["verify", "bridge", "--N", "12", "--format", "csv"],
        ["verify", "theorem-schroeder", "--k", "7", "--N", "20", "--format", "json"],
        ["seq", "banded", "--family", "w-path", "--w", "4", "--k", "8", "--N", "30"],
        ["seq", "w-path", "--w", "4", "--j", "4", "--N", "20"],
        ["seq", "schroder-compressed", "--j", "3", "--N", "15", "--omega", "2"],
    ]
    # column builders at every j, the power loop, the exact division by 1 - t
    + [
        ["seq", "grand-motzkin", "--N", "12", "--j", "3"],
        ["seq", "grand-motzkin", "--N", "10", "--j", "1", "--omega", "3", "--format", "json"],
        ["verify", "first-return", "--N", "25", "--format", "csv"],
        ["verify", "bridge", "--N", "18", "--format", "json"],
        ["seq", "schroder-compressed", "--N", "9", "--format", "json"],
        ["seq", "motzkin", "--N", "9", "--omega", "2", "--format", "csv"],
    ]
    # sizes where the quadratic fixed point and series inverse were costly
    + [
        ["seq", "motzkin", "--N", "200", "--omega", "2"],
        ["seq", "grand-motzkin", "--N", "150", "--j", "2", "--omega", "3"],
        ["seq", "schroder-compressed", "--N", "150", "--j", "3", "--omega", "1"],
        ["seq", "w-path", "--w", "2", "--j", "4", "--N", "150", "--omega", "4"],
        ["seq", "grand-motzkin", "--N", "60", "--j", "5"],
    ]
    # weights the symbolic outputs above never evaluate at: zero (a zero first
    # Hankel pivot, so Bareiss swaps rows) and negative
    + [
        ["hankel", "--n", "5", "--shift", "1", "--omega", "0"],
        ["hankel", "--n", "6", "--shift", "2", "--omega", "0", "--format", "json"],
        ["hankel", "--n", "6", "--alpha", "0", "--beta", "1", "--omega", "0", "--format", "csv"],
        ["hankel", "--n", "7", "--alpha", "2", "--beta", "-1", "--omega", "-2"],
        ["seq", "grand-motzkin", "--N", "12", "--j", "2", "--omega", "-3"],
        ["seq", "banded", "--family", "w-path", "--w", "2", "--k", "3", "--N", "12",
         "--omega", "-1", "--format", "json"],
        ["seq", "delannoy", "--N", "8", "--omega", "-2"],
        ["matrix", "schroder-inverse", "--n", "6", "--omega", "0"],
    ]
    # Delannoy numbers by their P-recurrence: a large integer weight, the
    # symbolic json rendering, and the shortest list at a negative weight
    + [
        ["seq", "delannoy", "--N", "40", "--omega", "3"],
        ["seq", "delannoy", "--N", "30", "--format", "json"],
        ["seq", "delannoy", "--N", "1", "--omega", "-2"],
    ]
    # the Hankel remainder sequence: a degree gap (a zero leading minor, so
    # the Bareiss fallback runs), a symbolic size past the workload's, a
    # shift 2 at a weight, and the aerated weight zero
    + [
        ["hankel", "--n", "6", "--alpha", "0", "--beta", "1", "--omega", "1"],
        ["hankel", "--n", "24", "--alpha", "2", "--beta", "-1", "--format", "json"],
        ["hankel", "--n", "9", "--shift", "2", "--omega", "3", "--format", "csv"],
        ["hankel", "--n", "12", "--alpha", "1", "--beta", "1", "--omega", "0"],
    ]
    # the inverse triangles read off the band polynomials: symbolic sizes past
    # the workload's, large int weights, a weight where a top coefficient of
    # a row polynomial vanishes, and an empty matrix
    + [
        ["matrix", "motzkin-inverse", "--n", "24"],
        ["matrix", "schroder-inverse", "--n", "20", "--format", "json"],
        ["matrix", "motzkin-inverse", "--n", "40", "--omega", "-2", "--format", "csv"],
        ["matrix", "schroder-inverse", "--n", "40", "--omega", "3"],
        ["matrix", "motzkin-inverse", "--n", "7", "--omega", "0"],
        ["matrix", "schroder-inverse", "--n", "0"],
    ]
    # verify at each suite's default bounds, and `verify all` with a flag that
    # only some suites read, so that the defaults and the binding of each flag
    # to its readers are pinned
    + [["verify", suite] for suite in ("lemma", "orthogonality", "banded-recursion",
                                       "first-return", "delannoy", "bridge", "gould",
                                       "theorem-schroeder", "all")]
    + [
        ["verify", "all", "--N", "5", "--format", "csv"],
        ["verify", "all", "--k", "2"],
        ["verify", "all", "--max", "3", "--format", "json"],
    ]
    # symbolic Hankel determinants rebuilt from integer evaluations: a degree
    # bound of one per row, shift 2 (two per row), a node where alpha + beta*w
    # vanishes (w = 2), a pure-beta gap at w = 0, and shift 1
    + [
        ["hankel", "--alpha", "1", "--beta", "1", "--n", "40", "--format", "json"],
        ["hankel", "--shift", "2", "--n", "22", "--format", "csv"],
        ["hankel", "--alpha", "2", "--beta", "-1", "--n", "25"],
        ["hankel", "--alpha", "0", "--beta", "1", "--n", "30"],
        ["hankel", "--shift", "1", "--n", "30", "--format", "json"],
    ]
    # symbolic series lifted from their run at w = 0: orders below a column's
    # offset e and at it, the w-path lattice (a, b) = (4, 2), a band on the
    # (2, 2) lattice, and the (1, 1) Delannoy lattice at order 0
    + [
        ["seq", "motzkin", "--N", "0", "--j", "3"],
        ["seq", "w-path", "--w", "4", "--j", "3", "--N", "14", "--format", "json"],
        ["seq", "banded", "--family", "w-path", "--w", "2", "--k", "3", "--N", "20",
         "--format", "csv"],
        ["seq", "grand-motzkin", "--N", "2", "--j", "5"],
        ["seq", "schroder-compressed", "--N", "12", "--j", "4", "--format", "json"],
        ["seq", "delannoy", "--N", "0"],
    ]
    # symbolic Hankel determinants interpolated in w^2: odd exponent e = 1
    # (pure beta, shift 1), shift 2, a pure beta of -2, a degree bound of 0,
    # and (1, 1) at n = 20, whose gap weights 0, -1, -2 are skipped
    + [
        ["hankel", "--alpha", "0", "--beta", "1", "--n", "23", "--format", "json"],
        ["hankel", "--shift", "1", "--n", "21"],
        ["hankel", "--shift", "2", "--n", "17", "--format", "csv"],
        ["hankel", "--alpha", "0", "--beta", "-2", "--n", "13"],
        ["hankel", "--alpha", "3", "--beta", "0", "--n", "9", "--format", "json"],
        ["hankel", "--alpha", "1", "--beta", "1", "--n", "20"],
    ]
    # shifted specs other than (1, 0), each with a closed form by Christoffel's
    # formula: both scalars nonzero, beta = 0 at a weight, and alpha = 0 (taken
    # as shift + 1, so shift 1 with (0, 1) prints what shift 2 prints above)
    + [
        ["hankel", "--shift", "2", "--alpha", "2", "--beta", "-1", "--n", "12", "--format", "json"],
        ["hankel", "--shift", "1", "--alpha", "1", "--beta", "1", "--n", "15"],
        ["hankel", "--shift", "2", "--alpha", "0", "--beta", "3", "--n", "8", "--format", "csv"],
        ["hankel", "--shift", "1", "--alpha", "-2", "--beta", "0", "--n", "9", "--omega", "3"],
        ["hankel", "--shift", "1", "--alpha", "0", "--beta", "1", "--n", "17", "--format", "csv"],
    ]
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_argv_list(golden):
    assert [case["argv"] for case in golden] == ARGV


@pytest.mark.parametrize("index", range(len(ARGV)), ids=lambda i: " ".join(ARGV[i]) or "<none>")
def test_golden(golden, index):
    assert _run(ARGV[index]) == golden[index]


class _ArgparseRan(Exception):
    pass


def test_a_golden_query_with_a_command_is_read_without_argparse(golden, monkeypatch):
    # every golden query that begins with a command has the canonical form,
    # which cli reads from its parser's actions; argparse reads only the one
    # whose value no type accepts, for its error text
    def refuse(parser, *args, **kwargs):
        raise _ArgparseRan(parser.prog)

    commands = cli._build_parser().commands
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    read_by_argparse = []
    for case in golden:
        if case["argv"] and case["argv"][0] in commands:
            try:
                assert _run(case["argv"]) == case
            except _ArgparseRan:
                read_by_argparse.append(case["argv"])
    assert read_by_argparse == [["seq", "motzkin", "--N", "3", "--omega", "pi"]]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_run(argv) for argv in ARGV], indent=1) + "\n")
    print(f"wrote {len(ARGV)} cases to {GOLDEN}")
