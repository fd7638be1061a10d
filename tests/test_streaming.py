"""Symbolic output streamed row by row: the lift's rows, the one writer, errors mid-stream, memory.

At W every seq family and both inverse triangles are written one row at a
time, as the row recurrences make them.  These tests check that the bytes
equal the text of the materialized library object, that the lift's rows are
the closed-form binomial coefficients, that an error after the first write
keeps its exit code and leaves exactly the rows written, and that three
queries run in a fixed address space.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathenum import cli, motzkin, schroder
from pathenum.algebra import InexactDivision, TSeries, W, _RowSeries
from pathenum.matrices import _RowTriangle

FORMATS = ("plain", "csv", "json")
FLAG_RANGE = {"j": (0, 3), "k": (1, 6), "w": (1, 3)}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def series_text(ts: TSeries, fmt: str) -> str:
    """The CLI's text of a symbolic series, from its coefficients."""
    if fmt == "json":
        return canonical_json(
            {"coeffs": [[str(x) for x in c.coeffs] for c in ts.coeffs], "order": ts.order})
    texts = [str(c) for c in ts.coeffs]
    return csv_text([texts]) if fmt == "csv" else "; ".join(texts) + "\n"


def matrix_text(rows, fmt: str) -> str:
    """The CLI's text of a symbolic triangle, from its rows."""
    if fmt == "json":
        return canonical_json(
            {"n": len(rows), "rows": [[[str(x) for x in e.coeffs] for e in row] for row in rows]})
    texts = [[str(e) for e in row] for row in rows]
    return csv_text(texts) if fmt == "csv" else "".join("; ".join(row) + "\n" for row in texts)


@st.composite
def seq_queries(draw):
    """(argv, the family's flags) for a seq family of _SEQ at W, with its band family if any."""
    family = draw(st.sampled_from(sorted(cli._SEQ)))
    reads = dict(cli._SEQ[family][0])
    argv, flags = ["seq", family], {}
    if "family" in reads:
        band = draw(st.sampled_from(sorted(cli._BAND)))
        del reads["family"]
        reads.update(cli._BAND[band][0])
        argv += ["--family", band]
        flags["family"] = band
    for flag in reads:
        flags[flag] = draw(st.integers(*FLAG_RANGE[flag]))
        argv += [f"--{flag}", str(flags[flag])]
    return argv, flags


class TestDifferential:
    """CLI stdout at W equals the text of the library object, which is materialized."""

    @settings(max_examples=120, deadline=None)
    @given(query=seq_queries(), order=st.integers(0, 40), fmt=st.sampled_from(FORMATS))
    def test_seq(self, query, order, fmt):
        argv, flags = query
        ts = cli._SEQ[argv[1]][1](order, W, **flags)
        want = series_text(TSeries(ts.coeffs, ts.order), fmt)
        assert run_cli(argv + ["--N", str(order), "--format", fmt]) == (0, want)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["motzkin-inverse", "schroder-inverse"]), n=st.integers(1, 12),
           fmt=st.sampled_from(FORMATS))
    def test_inverse_triangle(self, kind, n, fmt):
        rows = cli._MATRIX[kind](n, W).rows
        assert len(rows) == n
        assert run_cli(["matrix", kind, "--n", str(n), "--format", fmt]) == (0, matrix_text(rows, fmt))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_count_triangle(self, fmt):
        # count triangles stay materialized; the writer still writes them row by row
        rows = motzkin.grand_matrix(5).rows
        assert run_cli(["matrix", "grand", "--n", "5", "--format", fmt]) == (0, matrix_text(rows, fmt))


LATTICES = [(1, 2), (1, 1), (2, 2), (3, 2), (4, 2)]


class TestLiftRows:
    @settings(max_examples=150, deadline=None)
    @given(lattice=st.sampled_from(LATTICES), e=st.integers(0, 4), c=st.integers(1, 5),
           order=st.integers(0, 40), data=st.data())
    def test_rows_are_binomial_multiples(self, lattice, e, c, order, data):
        # row n, entry r is g_m C(c + 2m - 1 + r, r) with n = e + b m + a r
        a, b = lattice
        g = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=order + 1, max_size=order + 1))
        q0 = [g[m] if n == e + b * m else 0 for n in range(order + 1) for m in [max(n - e, 0) // b]]
        rows = list(schroder._lift(a, b, e, c, TSeries(q0, order), order).stream())
        assert len(rows) == order + 1
        for n, row in enumerate(rows):
            assert len(row) == ((n - e) // a + 1 if n >= e else 0)
            for r, x in enumerate(row):
                m, off = divmod(n - e - a * r, b)
                assert x == (0 if off else g[m] * math.comb(c + 2 * m - 1 + r, r)), (n, r)

    def test_only_b_one_or_two_and_checked_on_call(self):
        # the checks of the input raise when the lift is asked for, not on first read
        with pytest.raises(ValueError, match="the lift needs b = 1 or 2, got 3"):
            schroder._lift(1, 3, 0, 1, TSeries([1]), 0)
        with pytest.raises(InexactDivision, match="off the lattice"):
            schroder._lift(1, 2, 0, 1, TSeries([0, 1]), 1)

    def test_band_rows_checked_on_call(self):
        # weight, index and step are checked when the triangle or polynomials are asked for
        with pytest.raises(ValueError, match="neither W nor an int"):
            schroder._band_triangle(1, 1, 2, "w")
        with pytest.raises(ValueError, match="neither W nor an int"):
            schroder._band_polys(1, 1, 2, "w")
        with pytest.raises(ValueError, match="index must be nonnegative"):
            schroder._band_polys(1, 1, -1, W)
        with pytest.raises(ValueError, match="step length"):
            schroder._band_triangle(0, 1, 2, W)

    def test_shift_down_reads_a_row_built_series_whole(self):
        # the inherited TSeries.shift_down reads every row and checks the dropped ones at the call
        rows = _RowSeries(lambda: iter([[0], [0, 2], [1]]), 2)
        assert rows.shift_down(1).coeffs == rows.coeffs[1:]
        with pytest.raises(InexactDivision, match=r"coefficient of t\^1 is 2\*w, not 0"):
            rows.shift_down(2)

    def test_a_streamed_series_is_never_held(self, monkeypatch, capsys):
        # the writer reads the rows only: a read of the coefficients would raise
        def no_read(self, name):
            raise AssertionError(f"{name} was read")

        monkeypatch.setattr(_RowSeries, "__getattr__", no_read)
        monkeypatch.setattr(_RowTriangle, "__getattr__", no_read)
        assert cli.main(["seq", "motzkin", "--N", "4", "--j", "1"]) == 0
        assert cli.main(["matrix", "schroder-inverse", "--n", "3", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            "1; 2*w; 2 + 3*w^2; 8*w + 4*w^3; 5 + 20*w^2 + 5*w^4\n"
            '{"n":3,"rows":[[["1"]],[["-1","-1"],["1"]],[["0","1","1"],["-2","-2"],["1"]]]}\n')


def failing_after(count, exc):
    """Builders whose first count rows are those of the real triangle and series, then exc."""
    real_matrix, real_series = motzkin.inverse_motzkin_matrix, motzkin.motzkin_column_gf

    def rows(real):
        def make():
            for i, row in enumerate(real):
                if i == count:
                    raise exc
                yield row
        return make

    def matrix(n, omega):
        return _RowTriangle(rows(real_matrix(n, omega).rows), n)

    def series(j, order, omega):
        return _RowSeries(rows([c.coeffs for c in real_series(j, order, omega).coeffs]), order)

    return matrix, series


class _Stdout(io.StringIO):
    """A text stdout with a file descriptor, which the broken-pipe exit redirects."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def fileno(self):
        return self._fd


class TestErrorsMidStream:
    PARTIAL = {
        "matrix": (["matrix", "motzkin-inverse", "--n", "6"], "1\n-w; 1\n-1 + w^2; -2*w; 1\n"),
        "seq": (["seq", "motzkin", "--N", "6"], "1; w; 1 + w^2"),
    }

    @pytest.mark.parametrize("what", sorted(PARTIAL))
    def test_memory_error_after_output_says_partial(self, what, monkeypatch, capsys):
        matrix, series = failing_after(3, MemoryError())
        monkeypatch.setattr(cli.motzkin, "inverse_motzkin_matrix", matrix)
        monkeypatch.setattr(cli.motzkin, "motzkin_column_gf", series)
        argv, rows = self.PARTIAL[what]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == rows
        assert err == "error: out of memory; the output is partial; ask for a smaller size\n"

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    @pytest.mark.parametrize("what", sorted(PARTIAL))
    def test_memory_error_before_output_is_not_partial(self, what, fmt, monkeypatch, capsys):
        # plain and csv write nothing before the first row, so no output is partial
        matrix, series = failing_after(0, MemoryError())
        monkeypatch.setattr(cli.motzkin, "inverse_motzkin_matrix", matrix)
        monkeypatch.setattr(cli.motzkin, "motzkin_column_gf", series)
        argv, _ = self.PARTIAL[what]
        assert cli.main(argv + ["--format", fmt]) == 2
        assert capsys.readouterr() == ("", "error: out of memory; ask for a smaller size\n")

    @pytest.mark.parametrize("what", sorted(PARTIAL))
    def test_broken_pipe_after_output_exits_141(self, what, monkeypatch, capsys, tmp_path):
        matrix, series = failing_after(3, BrokenPipeError())
        monkeypatch.setattr(cli.motzkin, "inverse_motzkin_matrix", matrix)
        monkeypatch.setattr(cli.motzkin, "motzkin_column_gf", series)
        argv, rows = self.PARTIAL[what]
        with open(tmp_path / "stdout", "w") as target:
            stdout = _Stdout(target.fileno())
            monkeypatch.setattr(sys, "stdout", stdout)
            assert cli.main(argv) == 141
        assert stdout.getvalue() == rows
        assert capsys.readouterr().err == ""


CAPPED = [
    (["seq", "schroder-compressed", "--N", "600"], 44_303_003,
     "f01241d569a44c7dce9639ccdbb6098916262f333cff8f2030ad5ff854a1e263"),
    (["matrix", "motzkin-inverse", "--n", "200"], 33_595_432,
     "364fe102a08141519025042f2a484b5c75b3dc96abf48c1662a9c247f18c07a6"),
    # the lift holds at most order + 1 rows, however long the step
    (["seq", "w-path", "--w", "1000000000", "--N", "3"], 11,
     "cda6a2e499f23200fa297b03620f856845384b76750005f676c10696efec1e0b"),
]


@pytest.mark.parametrize("argv, size, digest", CAPPED, ids=[" ".join(c[0]) for c in CAPPED])
def test_streamed_output_fits_in_100_mb(argv, size, digest):
    # the child caps its own address space; building the whole object and
    # its text before writing needs more than this cap for the first two
    # queries, and holding one lift row per unit of the step w for the third
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    cap = 100 << 20
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pathenum.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    sha, written = hashlib.sha256(), 0
    for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
        sha.update(chunk)
        written += len(chunk)
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (0, b"")
    assert (written, sha.hexdigest()) == (size, digest)
