"""Command-line behavior: pinned outputs, formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import types
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathenum import algebra, cli, motzkin, schroder
from pathenum.algebra import W, OmegaPoly, RationalGF, TPoly, TSeries
from pathenum.checks import fail
from conftest import eval_omega

PLANTED = fail("a planted failure", 0, 1)


def run(*argv, capsys=None):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that every call is counted; returns the live counter."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSeq:
    def test_motzkin_weight_one(self, capsys):
        code, out, _ = run("seq", "motzkin", "--N", "7", "--omega", "1", capsys=capsys)
        assert code == 0
        assert out == "1 1 2 4 9 21 51 127\n"

    def test_motzkin_symbolic(self, capsys):
        code, out, _ = run("seq", "motzkin", "--N", "2", capsys=capsys)
        assert code == 0
        assert out == "1; w; 1 + w^2\n"

    def test_banded_schroder(self, capsys):
        code, out, _ = run(
            "seq", "banded", "--family", "schroder", "--k", "4", "--N", "6",
            "--omega", "1", capsys=capsys,
        )
        assert code == 0
        assert out == "1 2 6 22 89 377 1630\n"

    def test_banded_motzkin_symbolic(self, capsys):
        # length <= 3 paths to height 0 never reach height 2, so these agree
        # with the unrestricted Motzkin polynomials
        code, out, _ = run("seq", "banded", "--k", "2", "--N", "4", capsys=capsys)
        assert code == 0
        assert out == "1; w; 1 + w^2; 3*w + w^3; 1 + 6*w^2 + w^4\n"

    def test_grand_and_w_path(self, capsys):
        code, out, _ = run("seq", "grand-motzkin", "--N", "4", "--omega", "2", capsys=capsys)
        assert code == 0
        assert out == "1 2 6 20 70\n"
        code, out, _ = run("seq", "w-path", "--w", "2", "--N", "8", "--omega", "1", capsys=capsys)
        assert code == 0
        assert out == "1 0 2 0 6 0 22 0 90\n"

    def test_schroder_compressed_and_delannoy(self, capsys):
        code, out, _ = run("seq", "schroder-compressed", "--N", "4", "--omega", "1", capsys=capsys)
        assert code == 0
        assert out == "1 2 6 22 90\n"
        code, out, _ = run("seq", "delannoy", "--N", "4", "--omega", "1", capsys=capsys)
        assert code == 0
        assert out == "1 3 13 63 321\n"

    def test_column_sequence(self, capsys):
        code, out, _ = run(
            "seq", "w-path", "--w", "3", "--j", "1", "--N", "6", capsys=capsys
        )
        assert code == 0
        assert out == "0; 1; 0; 2; 2*w; 5; 8*w\n"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            "seq", "motzkin", "--N", "4", "--omega", "1", "--format", "csv", capsys=capsys
        )
        assert code == 0
        assert out == "1,1,2,4,9\n"

    def test_json_symbolic_roundtrip(self, capsys):
        code, out, _ = run("seq", "motzkin", "--N", "3", "--format", "json", capsys=capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["order"] == 3
        assert parsed["coeffs"][3] == ["0", "3", "0", "1"]
        # canonical: re-serializing parses back to the same bytes
        assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == out.strip()

    def test_bad_parameters_exit_two(self, capsys):
        assert run("seq", "motzkin", "--N", "-1", capsys=capsys)[0] == 2
        assert run("seq", "banded", "--N", "4", capsys=capsys)[0] == 2  # missing --k
        assert run("seq", "motzkin", capsys=capsys)[0] == 2  # missing --N
        assert run("seq", "motzkin", "--N", "3", "--omega", "pi", capsys=capsys)[0] == 2
        assert run("seq", "delannoy", "--N", "3", "--j", "2", capsys=capsys)[0] == 2

    def test_memory_error_exits_two_with_one_line(self, monkeypatch, capsys):
        # a request too large for memory is refused like a usage error, not
        # reported as a mathematical disagreement (exit 1) with a traceback
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli.motzkin, "motzkin_column_gf", exhausted)
        code, out, err = run("seq", "motzkin", "--N", "3", capsys=capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["motzkin", "--N", "5", "--k", "3"], "--k"),
            (["motzkin", "--N", "5", "--w", "3"], "--w"),
            (["motzkin", "--N", "5", "--family", "schroder"], "--family"),
            (["w-path", "--w", "2", "--N", "5", "--k", "2"], "--k"),
            (["delannoy", "--N", "5", "--family", "motzkin"], "--family"),
            (["banded", "--family", "schroder", "--k", "2", "--N", "5", "--w", "2"], "--w"),
            (["banded", "--k", "2", "--N", "5", "--w", "1"], "--w"),
            (["banded", "--k", "3", "--N", "4", "--j", "0"], "--j"),
            (["delannoy", "--N", "3", "--j", "0"], "--j"),
        ],
    )
    def test_unread_flag_rejected(self, argv, flag, capsys):
        code, out, err = run("seq", *argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert f"does not read {flag}" in err

    def test_values_past_the_int_str_limit_print_in_full(self, capsys):
        values = eval_omega(schroder.compressed_column_gf(0, 800), 4).int_coeffs()
        x = 10**699 + 7  # a 700-digit weight, read as a flag
        saved = sys.get_int_max_str_digits()
        try:
            want = " ".join(str(v) for v in values) + "\n"
            want_x = f"1 {x} {1 + x * x}\n"
            flag = str(x)
            sys.set_int_max_str_digits(640)
            code, out, err = run("seq", "schroder-compressed", "--N", "800", "--omega", "4",
                                 capsys=capsys)
            assert sys.get_int_max_str_digits() == 640
            code_x, out_x, err_x = run("seq", "motzkin", "--N", "2", "--omega", flag,
                                       capsys=capsys)
            assert sys.get_int_max_str_digits() == 640
            code_bad, _, _ = run("seq", "motzkin", "--N", "2", "--omega", "x", capsys=capsys)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, err) == (0, "")
        assert len(str(values[-1])) > 640
        assert out == want
        assert (code_x, out_x, err_x) == (0, want_x, "")
        assert code_bad == 2


class TestMatrix:
    def test_motzkin_inverse_display(self, capsys):
        code, out, _ = run("matrix", "motzkin-inverse", "--n", "5", "--omega", "1", capsys=capsys)
        assert code == 0
        assert out == "1\n-1 1\n0 -2 1\n1 1 -3 1\n-1 2 3 -4 1\n"

    def test_schroder_display(self, capsys):
        code, out, _ = run("matrix", "schroder", "--n", "5", "--omega", "1", capsys=capsys)
        assert code == 0
        assert out == "1\n2 1\n6 4 1\n22 16 6 1\n90 68 30 8 1\n"

    def test_trivial_dimension(self, capsys):
        code, out, _ = run("matrix", "motzkin", "--n", "1", capsys=capsys)
        assert code == 0
        assert out == "1\n"

    def test_symbolic_grand(self, capsys):
        code, out, _ = run("matrix", "grand", "--n", "3", capsys=capsys)
        assert code == 0
        assert out == "1\nw; 1\n2 + w^2; 2*w; 1\n"

    def test_json_matrix(self, capsys):
        code, out, _ = run(
            "matrix", "motzkin", "--n", "2", "--format", "json", capsys=capsys
        )
        assert code == 0
        assert json.loads(out) == {"n": 2, "rows": [[["1"]], [["0", "1"], ["1"]]]}

    def test_bad_dimension(self, capsys):
        assert run("matrix", "motzkin", "--n", "0", capsys=capsys)[0] == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.just(0) | st.integers(-10**30, 10**30), max_size=6), max_size=4),
       st.lists(st.integers(-10**30, 10**30), max_size=4))
def test_no_value_text_needs_csv_quoting(polys, ints):
    # a csv row is its value texts joined by "," (cli._sep): that holds only
    # while csv quoting leaves every text of a polynomial in w or an int as it is
    texts = [algebra._w_text(c) for c in polys] + [str(v) for v in ints]
    assert cli._csv_line(texts) == ",".join(texts)


@pytest.mark.parametrize("omega", [(), ("--omega", "2"), ("--omega", "-3")])
@pytest.mark.parametrize("argv", [
    *(("matrix", kind, "--n", "5") for kind in cli._MATRIX),
    ("seq", "motzkin", "--N", "8", "--j", "2"),
    ("seq", "banded", "--family", "schroder", "--k", "3", "--N", "8"),
])
def test_csv_is_plain_with_commas(argv, omega, capsys):
    # plain and csv rows join the same value texts, by "; " at W and " " at an int weight
    plain = run(*argv, *omega, capsys=capsys)
    csv = run(*argv, *omega, "--format", "csv", capsys=capsys)
    assert plain[0] == csv[0] == 0 and plain[1]
    assert csv[1] == plain[1].replace(" " if omega else "; ", ",")


@pytest.mark.parametrize("argv", [
    ("matrix", "motzkin-inverse", "--n", "12"),
    ("matrix", "schroder-inverse", "--n", "12"),
    ("verify", "first-return", "--N", "20"),
])
def test_no_polynomial_or_series_product_over_z_w(argv, monkeypatch, capsys):
    # both inverse triangles come from the band recurrence and first-return
    # from fused dots, so none of them multiplies TPolys or TSeries over Z[w];
    # TPoly.__mul__ and TSeries.__mul__ look _convolve up at each call
    symbolic = []
    real = algebra._convolve

    def counted(a, b, length):
        if any(isinstance(x, OmegaPoly) for x in (*a, *b)):
            symbolic.append((a, b))
        return real(a, b, length)

    monkeypatch.setattr(algebra, "_convolve", counted)
    assert run(*argv, capsys=capsys)[0] == 0
    assert symbolic == []
    TPoly([W]) * TPoly([W])  # the wrapper sees a product over Z[w]
    assert len(symbolic) == 1


@pytest.mark.parametrize("j", ["0", "2"])
def test_grand_motzkin_at_an_integer_weight_divides_no_series(j, monkeypatch, capsys):
    # the grand series is D^(-1/2) by its own recurrence (schroder._grand),
    # not a quotient by D; a module that binds _quotient by name is counted too
    counters = [count_calls(monkeypatch, module, "_quotient")
                for module in (algebra, motzkin, schroder) if hasattr(module, "_quotient")]
    code, out, _ = run("seq", "grand-motzkin", "--N", "30", "--j", j, "--omega", "3",
                       capsys=capsys)
    assert code == 0 and len(out.split()) == 31
    assert [c[0] for c in counters] == [0] * len(counters)
    TSeries([1, 1]).inverse()  # the wrapper sees a series quotient
    assert counters[0] == [1]


class TestHankel:
    def test_sum_matrix_five(self, capsys):
        code, out, _ = run(
            "hankel", "--alpha", "1", "--beta", "1", "--n", "5", "--omega", "1", capsys=capsys
        )
        assert code == 0
        assert out == "determinant: 6\nclosed-form: 6\nagree: true\n"

    def test_plain_eight_symbolic(self, capsys):
        code, out, _ = run("hankel", "--alpha", "1", "--beta", "0", "--n", "8", capsys=capsys)
        assert code == 0
        assert out == "determinant: 1\nclosed-form: 1\nagree: true\n"

    def test_second_hankel(self, capsys):
        code, out, _ = run(
            "hankel", "--shift", "1", "--n", "3", "--omega", "1", capsys=capsys
        )
        assert code == 0
        assert "determinant: -1" in out
        assert "agree: true" in out

    def test_shift_two_uses_recursion_reference(self, capsys):
        code, out, _ = run("hankel", "--shift", "2", "--n", "4", capsys=capsys)
        assert code == 0
        assert "agree: true" in out

    def test_bad_combo(self, capsys):
        # every shift takes any (alpha, beta); only (0, 0) is refused
        code, out, _ = run("hankel", "--shift", "1", "--alpha", "2", "--n", "3", capsys=capsys)
        assert (code, out.endswith("agree: true\n")) == (0, True)
        assert run("hankel", "--alpha", "0", "--beta", "0", "--n", "3", capsys=capsys)[0] == 2


class TestVerify:
    def test_theorem_schroeder_prints_coefficients(self, capsys):
        code, out, _ = run(
            "verify", "theorem-schroeder", "--k", "4", "--N", "12", capsys=capsys
        )
        assert code == 0
        assert out.startswith("PASS theorem-schroeder")
        assert "1 7 36 168 756 3353 14783 65016 285648 1254456 5508097 24183271 106173180" in out

    def test_theorem_schroeder_builds_product_once(self, monkeypatch, capsys):
        products = count_calls(monkeypatch, cli.schroder, "band_times_s")
        expansions = count_calls(monkeypatch, RationalGF, "expand")
        code, out, _ = run("verify", "theorem-schroeder", "--k", "4", "--N", "12", capsys=capsys)
        assert code == 0
        assert "regular coefficients: 1 7 36" in out
        assert products == [1]
        assert expansions == [1]

    def test_theorem_schroeder_reads_the_engine_band(self, monkeypatch, capsys):
        # a +t in the numerator of the engine's (1, 1) band, the band that
        # seq banded --family schroder prints, must fail the theorem
        real = schroder._banded

        def planted(a, b, k, omega):
            gf = real(a, b, k, omega)
            return RationalGF(gf.num + TPoly([0, 1]), gf.den) if (a, b) == (1, 1) else gf

        monkeypatch.setattr(schroder, "_banded", planted)
        code, out, _ = run("verify", "theorem-schroeder", "--k", "4", "--N", "12", capsys=capsys)
        assert code == 1
        assert out.startswith("FAIL theorem-schroeder (k=4, order 12): first mismatch at ")

    def test_bridge_builds_each_family_once(self, monkeypatch, capsys):
        families = count_calls(monkeypatch, cli.schroder, "_band_polys")
        delannoy = count_calls(monkeypatch, cli.schroder, "delannoy_poly")
        code, out, _ = run("verify", "bridge", "--N", "20", capsys=capsys)
        assert (code, out) == (0, "PASS delannoy-s-bridge (n <= 20)\n")
        assert families == [1]
        assert delannoy[0] <= 23

    def test_gould(self, capsys):
        code, out, _ = run("verify", "gould", "--k", "20", capsys=capsys)
        assert code == 0
        assert out.startswith("PASS gould-carlitz")

    def test_all_small(self, capsys):
        code, out, _ = run("verify", "all", "--max", "6", capsys=capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_json_format(self, capsys):
        code, out, _ = run(
            "verify", "first-return", "--N", "10", "--format", "json", capsys=capsys
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["ok"] is True

    def test_omega_rejected(self, capsys):
        # the suites check symbolically; a weight would be silently ignored
        code, out, err = run("verify", "lemma", "--omega", "7", capsys=capsys)
        assert code == 2
        assert out == ""
        assert "--omega" in err

    @pytest.mark.parametrize(
        "argv, module, name, bad, corrupt, where",
        [
            (["lemma", "--max", "6"], "motzkin", "inverse_motzkin_entry", (3, 1),
             lambda v: v + 1, None),
            # the suite checks n = 1..6 in one call and names n
            (["bridge", "--N", "6"], "schroder", "inverse_schroder_poly", (4, 1),
             lambda v: v + 1, "at n=4:"),
            # a wrong d_2 leaves t^2 d_0(-t) + d_2(-t) with a remainder mod 1 - t:
            # the product (1 - t) s_1 differs from it, a FAIL line, not a raise
            (["bridge", "--N", "4"], "schroder", "_d_neg_at1", (2,), lambda v: v + 1,
             "quotient identity at n=1: lhs=[1, -3, 2], rhs=[2, -3, 2]"),
            (["gould", "--k", "8"], "schroder", "gould_identity_check", (5, 2),
             lambda v: PLANTED, None),
        ],
    )
    def test_failure_is_reported(self, argv, module, name, bad, corrupt, where, monkeypatch,
                                 capsys):
        # a suite that loops over many checks must report its first failure
        mod = getattr(cli, module)
        real = getattr(mod, name)

        def broken(*idx):
            value = real(*idx)
            return corrupt(value) if idx == bad else value

        monkeypatch.setattr(mod, name, broken)
        code, out, _ = run("verify", *argv, capsys=capsys)
        assert code == 1
        assert out.startswith("FAIL ")
        assert "first mismatch" in out
        if where:
            assert where in out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["lemma", "--max", "3", "--k", "9"], "--k"),
            (["lemma", "--max", "3", "--N", "7"], "--N"),
            (["orthogonality", "--max", "3", "--N", "50"], "--N"),
            (["first-return", "--N", "5", "--k", "3"], "--k"),
            (["delannoy", "--max", "4"], "--max"),
            (["bridge", "--k", "0"], "--k"),
            (["gould", "--k", "4", "--max", "99"], "--max"),
            (["banded-recursion", "--max", "12"], "--max"),
            (["theorem-schroeder", "--k", "4", "--max", "3"], "--max"),
            # values below a suite's domain
            (["lemma", "--max", "0"], "--max"),
            (["theorem-schroeder", "--k", "0", "--N", "3"], "--k"),
            (["theorem-schroeder", "--k", "4", "--N", "-1"], "--N"),
            (["banded-recursion", "--k", "0"], "--k"),
            (["first-return", "--N", "-3"], "--N"),
            (["delannoy", "--N", "-2"], "--N"),
            (["delannoy", "--N", "0"], "--N"),
            (["bridge", "--N", "0"], "--N"),
            (["gould", "--k", "-1"], "--k"),
        ],
    )
    def test_unread_flag_rejected(self, argv, flag, capsys):
        code, out, err = run("verify", *argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert flag in err

    def test_bad_bound_rejected_before_any_suite(self, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("a suite ran before the flags were checked")

        monkeypatch.setattr(cli.motzkin, "verify_lemma", never)
        code, out, err = run("verify", "all", "--k", "1", "--max", "30", "--N", "40", capsys=capsys)
        assert code == 2
        assert out == ""
        assert "theorem-schroeder requires --k >= 2" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["first-return", "--N", "0"], "first-return (n <= 0)"),
            (["banded-recursion", "--k", "1", "--N", "0"], "banded-recursion (k=1, n <= 0)"),
            (["gould", "--k", "0"], "gould-carlitz (k <= 0)"),
            (["theorem-schroeder", "--k", "2", "--N", "0"], "theorem-schroeder (k=2, order 0)"),
        ],
    )
    def test_explicit_zero_is_kept(self, argv, name, capsys):
        code, out, _ = run("verify", *argv, capsys=capsys)
        assert code == 0
        assert out.startswith(f"PASS {name}\n")


class TestUsageErrorText:
    """Every UsageError the CLI raises, pinned as its full stderr line.

    The cases also pin the order of the checks: seq rejects an unread flag
    (k, w, j, family) before --N, --N before --j, and --j before the family's
    own checks; hankel checks --n before (alpha, beta); verify checks every
    given flag (max, k, N) against every selected suite before any suite
    runs.  argparse's own errors are left out, because their usage text
    depends on the terminal width.
    """

    @pytest.mark.parametrize(
        "argv, message",
        [
            # seq: an unread flag, in the order k, w, j, family
            (["seq", "motzkin", "--N", "-1", "--k", "2", "--w", "0"],
             "seq motzkin does not read --k"),
            (["seq", "grand-motzkin", "--N", "3", "--w", "2", "--family", "schroder"],
             "seq grand-motzkin does not read --w"),
            (["seq", "delannoy", "--N", "-1", "--j", "-1"], "seq delannoy does not read --j"),
            (["seq", "schroder-compressed", "--N", "3", "--family", "motzkin"],
             "seq schroder-compressed does not read --family"),
            (["seq", "banded", "--family", "schroder", "--k", "2", "--N", "3", "--w", "2"],
             "seq banded does not read --w"),
            (["seq", "banded", "--k", "0", "--N", "-1", "--j", "1"],
             "seq banded does not read --j"),
            # seq: --N, then --j, then the family's own checks
            (["seq", "motzkin", "--N", "-1", "--j", "-1"], "--N must be nonnegative"),
            (["seq", "banded", "--N", "-1"], "--N must be nonnegative"),
            (["seq", "w-path", "--N", "3", "--j", "-1", "--w", "0"], "--j must be nonnegative"),
            (["seq", "w-path", "--N", "3", "--w", "0"], "--w must be a positive step length"),
            (["seq", "banded", "--family", "w-path", "--k", "2", "--N", "3", "--w", "-1"],
             "--w must be a positive step length"),
            (["seq", "banded", "--N", "3"], "banded sequences require a band height --k >= 1"),
            (["seq", "banded", "--family", "w-path", "--k", "0", "--N", "3", "--w", "0"],
             "banded sequences require a band height --k >= 1"),
            # matrix and hankel
            (["matrix", "grand", "--n", "0"], "--n must be >= 1"),
            (["hankel", "--n", "-2", "--shift", "1", "--alpha", "3"], "--n must be >= 1"),
            (["hankel", "--n", "0", "--alpha", "0", "--beta", "0"], "--n must be >= 1"),
            (["hankel", "--n", "3", "--alpha", "0", "--beta", "0"],
             "alpha and beta cannot both be zero"),
            # verify: flags in the order max, k, N, each against every selected suite
            (["verify", "gould", "--max", "0", "--k", "-1"], "verify gould does not read --max"),
            (["verify", "lemma", "--max", "0", "--k", "0"], "verify lemma requires --max >= 1"),
            (["verify", "delannoy", "--N", "0"], "verify delannoy requires --N >= 1"),
            (["verify", "all", "--k", "1", "--N", "-1"],
             "verify theorem-schroeder requires --k >= 2"),
            (["verify", "all", "--N", "0"], "verify delannoy requires --N >= 1"),
            (["verify", "all", "--max", "0"], "verify lemma requires --max >= 1"),
        ],
    )
    def test_full_stderr_line(self, argv, message, capsys):
        assert run(*argv, capsys=capsys) == (2, "", f"error: {message}\n")


class TestLedgerAndMisc:
    def test_typo_ledger(self, capsys):
        code, out, _ = run("--typo-ledger", capsys=capsys)
        assert code == 0
        assert "grand-mirror" in out
        assert "banded4-tail" in out
        assert "UNRESOLVED" not in out
        assert out.count("verified") >= 2

    @pytest.mark.parametrize("argv", [["seq", "motzkin", "--N", "3"], ["verify", "lemma"]])
    def test_typo_ledger_with_a_command_is_rejected(self, argv, capsys):
        # the ledger runs alone; a command given with it is not silently dropped
        code, out, err = run("--typo-ledger", *argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --typo-ledger takes no command, got {argv[0]}\n"

    def test_no_command_exits_two(self, capsys):
        assert run(capsys=capsys)[0] == 2

    def test_unknown_command_exits_two(self, capsys):
        assert run("frobnicate", capsys=capsys)[0] == 2

    def test_deterministic_output(self, capsys):
        a = run("seq", "banded", "--family", "schroder", "--k", "3", "--N", "10",
                "--omega", "1", capsys=capsys)
        b = run("seq", "banded", "--family", "schroder", "--k", "3", "--N", "10",
                "--omega", "1", capsys=capsys)
        assert a == b
        c = run("verify", "bridge", "--N", "6", capsys=capsys)
        d = run("verify", "bridge", "--N", "6", capsys=capsys)
        assert c == d

    def test_closed_stdout_exits_141_without_a_traceback(self):
        # 2 MB of output: far more than a pipe buffers, so the write fails
        # once the reader has gone
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pathenum.cli", "seq", "motzkin", "--N", "3000", "--omega", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert (head, err) == (b"1 1 2 4 9 ", b"")


# The CLI's own vocabulary, for argv that main and the top-level parser must
# read alike: commands, the names of every family, kind and suite, every flag
# (whole, abbreviated and in the --flag=value form), values, negative
# numbers, "--", help, --typo-ledger after a command, and junk.  An argument
# that begins "--=" is left out: on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0
# the top-level parser calls it ambiguous between --help and --typo-ledger,
# and the subcommand's parser names its own flags instead (exit 2 either way,
# pinned below).
_COMMANDS = ["seq", "matrix", "hankel", "verify"]
_NAMES = sorted({*cli._SEQ, *cli._BAND, *cli._MATRIX, *cli._VERIFY, "all"})
_FLAGS = ["--N", "--k", "--w", "--j", "--family", "--omega", "--format", "--n", "--alpha",
          "--beta", "--shift", "--max", "--fam", "--om", "--form", "--al", "--sh", "--ma"]
_VALUES = ["3", "0", "1", "2", "-1", "-2", "symbolic", "plain", "csv", "json", "motzkin",
           "xml", ""]
_TOKENS = [*_COMMANDS, *_NAMES, *_FLAGS, *_VALUES, "--N=3", "--omega=-2", "--n=2",
           "--format=json", "--", "-h", "--help", "--typo-ledger", "--ty", "-",
           "x", "-x", "--x", "-N", "---N", "--typo-ledger=1"]
_PIECES = st.sampled_from(_TOKENS).map(lambda t: [t]) | st.tuples(
    st.sampled_from(_FLAGS), st.sampled_from(_VALUES)).map(list)
_ARGV = st.builds(
    lambda first, name, pieces: first + name + [t for piece in pieces for t in piece],
    st.sampled_from(_COMMANDS).map(lambda c: [c]) | st.lists(st.sampled_from(_TOKENS), max_size=1),
    st.lists(st.sampled_from(_NAMES), max_size=1),
    st.lists(_PIECES, max_size=6),
)

# argv in or near the canonical form that main reads without argparse: a
# command, a name it takes, then distinct flags of its own, each with a value
_CANONICAL = st.sampled_from([
    ("seq", sorted(cli._SEQ), ["--N", "--k", "--w", "--j", "--family", "--omega", "--format"]),
    ("matrix", sorted(cli._MATRIX), ["--n", "--omega", "--format"]),
    ("hankel", [None], ["--n", "--alpha", "--beta", "--shift", "--omega", "--format"]),
    ("verify", sorted([*cli._VERIFY, "all"]), ["--max", "--k", "--N", "--format"]),
]).flatmap(lambda spec: st.builds(
    lambda name, pairs: [spec[0], *filter(None, [name]), *[t for pair in pairs for t in pair]],
    st.sampled_from(spec[1]),
    st.lists(st.tuples(st.sampled_from(spec[2]),
                       st.sampled_from(_VALUES) | st.integers(-3, 3).map(str)),
             unique_by=lambda pair: pair[0], max_size=len(spec[2])),
))


def _outcome(argv):
    """main's exit code, stdout, stderr and the Namespace of each command it ran."""
    ran = []

    def record(args=None):
        ran.append(args)
        return 0

    out, err = io.StringIO(), io.StringIO()
    commands = {f"_cmd_{name}": record for name in [*_COMMANDS, "typo_ledger"]}
    with mock.patch.multiple(cli, **commands), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue(), ran


class TestParser:
    def test_two_calls_build_one_parser(self, monkeypatch, request, capsys):
        # cli sees an argparse whose ArgumentParser records each parser made;
        # the subcommands' parsers are made with type(parser), so are recorded too
        built = []

        class Recorded(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.prog)

        monkeypatch.setattr(cli, "argparse",
                            types.SimpleNamespace(**{**vars(argparse), "ArgumentParser": Recorded}))
        cli._build_parser.cache_clear()
        request.addfinalizer(cli._build_parser.cache_clear)
        tree = ["pathenum", "pathenum seq", "pathenum matrix", "pathenum hankel", "pathenum verify"]
        assert run("seq", "motzkin", "--N", "3", capsys=capsys)[0] == 0
        assert built == tree  # the whole tree, on first use
        for argv in (["matrix", "motzkin", "--n", "3"], ["hankel", "--n", "2"],
                     ["verify", "lemma", "--max", "2"], ["seq", "motzkin", "--N", "3"], ["--typo-ledger"]):
            assert run(*argv, capsys=capsys)[0] == 0
        assert built == tree

    @settings(max_examples=400, deadline=None)
    @given(_ARGV | _CANONICAL)
    @example(["seq", "motzkin", "--N", "3", "--typo-ledger"])
    @example(["matrix", "grand", "--n", "2", "x"])
    @example(["verify", "all", "--", "--max", "2"])
    @example(["hankel", "--n", "2", "--omega=-2", "-h"])
    @example(["--typo-ledger", "seq", "motzkin", "--N", "3"])
    @example([])
    @example(["seq", "motzkin", "--N", "3", "--N", "4"])
    @example(["seq", "motzkin", "--N", "x", "--N", "4"])
    @example(["seq", "--N", "3", "motzkin"])
    @example(["seq", "motzkin", "--N", "x"])
    @example(["matrix", "grand", "--n", "2", "--format", "xml"])
    @example(["seq", "motzkin", "--omega", "1"])
    @example(["seq", "motzkin", "--N", "-1", "--k", "-1", "--w", "-1", "--j", "-1"])
    @example(["matrix", "grand", "--n", "-1", "--omega", "-1"])
    @example(["hankel", "--n", "-1", "--alpha", "-1", "--beta", "-1", "--shift", "-1"])
    @example(["verify", "all", "--max", "-1", "--k", "-1", "--N", "-1"])
    @example(["seq", "motzkin", "--N", "3", "--j", "-1_0"])
    @example(["seq", "motzkin", "--N", ""])
    @example(["matrix", "", "--n", "2"])
    def test_main_parses_as_the_top_level_parser(self, argv):
        # main reads an argv that begins with a command and has the canonical
        # form from that command's parser's actions, and gives any other to
        # that parser; with no command's parser to hand it parses every argv
        # with cli._build_parser().parse_args(argv), and the two must not differ
        got = _outcome(argv)
        with mock.patch.dict(cli._build_parser().commands, clear=True):
            assert _outcome(argv) == got

    def test_each_action_of_a_command_has_its_own_dest(self):
        # cli._quick_parse reads each action at most once; two actions of one
        # dest would leave the value to the order argparse reads them in
        for command in cli._build_parser().commands.values():
            dests = [action.dest for action in command._actions]
            assert len(set(dests)) == len(dests), command.prog

    @pytest.mark.parametrize("arg", ["--=", "--=x", "--=3"])
    def test_an_argument_beginning_dash_dash_equals_exits_two(self, arg, capsys):
        # the one argument the two parses read apart, on Python 3.10.13,
        # 3.11.7, 3.12.1 and 3.13.0: both reject it, with other error lines
        code, out, err = run("seq", "motzkin", "--N", "3", arg, capsys=capsys)
        assert (code, out) == (2, "")
        assert "error: ambiguous option: --=" in err

    _SEQ_USAGE = (
        "usage: pathenum seq [-h] --N N [--k K] [--w W] [--j J]\n"
        "                    [--family {motzkin,schroder,w-path}] [--omega OMEGA]\n"
        "                    [--format {plain,csv,json}]\n"
        "                    {motzkin,grand-motzkin,w-path,schroder-compressed,delannoy,banded}\n"
    )
    _USAGE = "usage: pathenum [-h] [--typo-ledger] {seq,matrix,hankel,verify} ...\n"

    @pytest.mark.parametrize("argv, err", [
        # a subcommand's own error names the subcommand's parser
        (["seq", "motzkin"],
         _SEQ_USAGE + "pathenum seq: error: the following arguments are required: --N\n"),
        # arguments left over after a command are the top-level parser's error
        (["seq", "motzkin", "--N", "3", "--typo-ledger"],
         _USAGE + "pathenum: error: unrecognized arguments: --typo-ledger\n"),
    ])
    def test_an_argparse_error_keeps_its_parsers_text(self, argv, err, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width
        assert run(*argv, capsys=capsys) == (2, "", err)

    def test_an_unknown_command_is_the_top_level_parsers_error(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        # newer Pythons list the choices without quotes
        errs = {self._USAGE + "pathenum: error: argument command: invalid choice: 'sequence' "
                f"(choose from {choices})\n"
                for choices in ("'seq', 'matrix', 'hankel', 'verify'", "seq, matrix, hankel, verify")}
        code, out, err = run("sequence", "motzkin", capsys=capsys)
        assert (code, out) == (2, "") and err in errs

    def test_command_replaced_after_the_first_call_is_the_one_that_runs(self, monkeypatch, capsys):
        assert run("seq", "motzkin", "--N", "3", capsys=capsys)[0] == 0
        monkeypatch.setattr(cli, "_cmd_seq", lambda args: 7)
        assert run("seq", "motzkin", "--N", "3", capsys=capsys)[0] == 7

    def test_usage_error_then_valid_call(self, capsys):
        assert run("seq", "motzkin", capsys=capsys)[0] == 2  # --N is required
        assert run("seq", "motzkin", "--N", "3", capsys=capsys)[:2] == (0, "1; w; 1 + w^2; 3*w + w^3\n")

    def test_flags_do_not_leak_into_the_next_call(self, capsys):
        assert run("seq", "motzkin", "--N", "3", "--j", "1", "--omega", "1", capsys=capsys)[0] == 0
        # delannoy rejects --j, and --omega 1 would print integers
        assert run("seq", "delannoy", "--N", "2", capsys=capsys)[:2] == (0, "1; 2 + w; 6 + 6*w + w^2\n")

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("argv", [
        ["seq", "motzkin", "--N", "6", "--j", "2"],
        ["seq", "banded", "--family", "schroder", "--k", "3", "--N", "6"],
        ["matrix", "schroder-inverse", "--n", "4"],
        ["hankel", "--n", "4", "--shift", "1"],
    ], ids=["seq-motzkin", "seq-banded", "matrix", "hankel"])
    def test_omega_symbolic_is_the_default(self, argv, fmt, capsys):
        default = run(*argv, "--format", fmt, capsys=capsys)
        assert default[0] == 0 and default[1]
        assert run(*argv, "--format", fmt, "--omega", "symbolic", capsys=capsys) == default
