"""Command-line surface: sequences, matrices, determinants, verifications.

Subcommands: seq | matrix | hankel | verify.  The weight is symbolic by
default; pass --omega with an integer to seq, matrix or hankel to
specialize (verify always checks symbolically).  The parser reads --omega
as the weight itself, W for 'symbolic' (the default) or an int, and the
builders take that value as it is.  An integer weight is bound
before anything is built and passed to the builders as a plain int: every
series, triangle, Hankel determinant and Hankel closed form is then
computed over Z on int scalars, not over Z[w].  seq and verify reject any
flag the chosen family or suite does not read, and verify rejects a bound
below its suite's domain.  Exit codes: 0 success, 1 a mathematical
disagreement was detected, or an internal check failed (an inexact
division, with a traceback; since output is streamed, part of it may have
been written), 2 usage error or a request too large for the
available memory (one error line, no traceback; if memory ran out after
part of the output was written, the line says that the output is partial),
141 the reader closed standard output before it was written.  All output is
deterministic and large integers are printed in full decimal.

One writer (_write) writes every seq and matrix answer, behind _emit_series
and _emit_matrix, a coefficient or a row at a time at every weight; the
weight picks only the text of each, and at an int weight _ints checks each
row of a triangle.  A seq family's series at W and an inverse triangle at
every weight are made row by row (stream), and each coefficient or row is
written as soon as it is made, so the command holds a few rows, not the
object and its text.  A count triangle's table is built whole and its rows
are read off it; an int-weight series is built whole, as ints.  The bytes
are those of the whole object.  A plain or csv row is its value texts
joined by one separator (_sep): no value text needs the csv quoting that
verify and hankel use (_csv_line).  JSON is {"coeffs":[...],"order":N} for
a series at W, {"order":N,"values":[...]} for one at an int weight, and
{"n":N,"rows":[...]} for a triangle, keys sorted (_dump_json).

Each seq family, band family, matrix kind and verify suite is declared
once, in a module-level table (_SEQ, _BAND, _MATRIX, _VERIFY) that holds
the flags it reads and its builder or checks; the parser's choices, the
flag checks and the dispatch all read these tables.  An entry looks its
builder up through its module at each call, so a function replaced there
(as a test or a tracer does) is the one that runs.

The argument parser is built once per process, on first use, and keeps each
subcommand's parser by name.  It records the subcommand's name, and main
looks up its _cmd_ function at each call.  A query whose first argument is a
subcommand's name is parsed by that subcommand's parser alone.  The
top-level parser would read that name, hand every later argument to the
subcommand's parser unread (the subcommand action takes the rest of the
line), and reject what is left over; so the result is argparse's own, and
main parses left-over arguments again with the top-level parser for its
"unrecognized arguments" error.  The one difference is an argument that
begins "--=": the top-level parser of Python 3.10.13, 3.11.7, 3.12.1 and
3.13.0 rejects it as ambiguous between --help and --typo-ledger, while the
subcommand's parser names its own flags (3.13.13 reads the two alike);
both exit 2.  Every other query goes through the top-level parser.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import discrepancies, hankel, motzkin, schroder
from .algebra import W, TSeries, _ints, _w_json, _w_text
from .checks import PASS
from .matrices import _RowTriangle


class UsageError(Exception):
    pass


def _omega_arg(text: str):
    if text == "symbolic":
        return W
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"omega must be an integer or 'symbolic', got {text!r}"
        )


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_line(row) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(row)
    return buf.getvalue()


def _sep(omega, fmt: str) -> str:
    """The separator of a plain or csv row: "," for csv, " " between ints, "; " at W."""
    return "," if fmt == "csv" else " " if isinstance(omega, int) else "; "


class _PartialOutput(MemoryError):
    """Memory ran out after part of the output was written."""


def _write(pieces) -> None:
    """Write each piece of text to standard output as soon as it is made: the one writer.

    sys.stdout is looked up at each call, so output redirected by the caller
    (a test, a benchmark client) receives it.  Memory that runs out after the
    first nonempty piece raises _PartialOutput, so that the error line can
    say so.
    """
    out = sys.stdout
    written = False
    try:
        for piece in pieces:
            out.write(piece)
            written = written or bool(piece)
    except MemoryError as exc:
        if not written:
            raise
        raise _PartialOutput from exc


def _joined(head: str, texts, sep: str, tail: str):
    """The pieces head, texts separated by sep, tail, as the texts are made."""
    yield head
    for i, text in enumerate(texts):
        yield sep + text if i else text
    yield tail


def _emit_series(ts: TSeries, omega, fmt: str) -> None:
    """Write the series one coefficient at a time.

    At W every seq builder returns a lifted series, made row by row, and its
    rows are written as stream() makes them; the series itself is never built.
    """
    if isinstance(omega, int):  # JSON {"order":N,"values":[1,...]}
        texts = map(str, ts.int_coeffs())  # raises if the weight was not bound in the builder
        head, tail = f'{{"order":{ts.order},"values":[', "]}\n"
    else:  # JSON {"coeffs":[["1"],["0","1"],...],"order":N}: w-coefficients as strings
        rows = ts.stream()  # each coefficient as its coefficient list in w
        texts = map(_dump_json, map(_w_json, rows)) if fmt == "json" else map(_w_text, rows)
        head, tail = '{"coeffs":[', f'],"order":{ts.order}}}\n'
    if fmt == "json":
        _write(_joined(head, texts, ",", tail))
    else:
        _write(_joined("", texts, _sep(omega, fmt), "\n"))


def _emit_matrix(m: _RowTriangle, omega, fmt: str) -> None:
    """Write the triangle one row at a time, as stream() makes it."""
    rows = m.stream()
    if isinstance(omega, int):
        rows = map(_ints, rows)  # raises if the weight was not bound in the builder
    elif fmt == "json":
        rows = ([e.to_json() for e in row] for row in rows)
    if fmt == "json":  # the bytes of _dump_json({"n": m.n, "rows": rows})
        _write(_joined(f'{{"n":{m.n},"rows":[', map(_dump_json, rows), ",", "]}\n"))
    else:
        _write(_sep(omega, fmt).join(map(str, row)) + "\n" for row in rows)


def _step(w: int) -> int:
    if w < 1:
        raise UsageError("--w must be a positive step length")
    return w


def _seq_banded(n, omega, k, family, **flags):
    if k is None or k < 1:
        raise UsageError("banded sequences require a band height --k >= 1")
    return _BAND[family][1](k, n, omega, **flags)


# Each seq family: (the optional flags it reads, as {flag: default}, and its
# builder(order, omega, **flags)); any other flag given is an error.  A family
# that reads --family also reads the flags of the band family it names.
_SEQ = {
    "motzkin": ({"j": 0}, lambda n, omega, j: motzkin.motzkin_column_gf(j, n, omega)),
    "grand-motzkin": ({"j": 0}, lambda n, omega, j: motzkin.grand_column_gf(j, n, omega)),
    "w-path": ({"j": 0, "w": 1},
               lambda n, omega, j, w: schroder.w_column_gf(j, _step(w), n, omega)),
    "schroder-compressed": ({"j": 0},
                            lambda n, omega, j: schroder.compressed_column_gf(j, n, omega)),
    "delannoy": ({}, lambda n, omega: schroder.central_delannoy_series(n, omega)),
    "banded": ({"k": None, "family": "motzkin"}, _seq_banded),
}

# Each band family of seq banded, in the same form: its builder takes (k, order, omega).
_BAND = {
    "motzkin": ({}, lambda k, n, omega: motzkin.banded_motzkin_series(k, n, omega)),
    "schroder": ({}, lambda k, n, omega: schroder.banded_schroder_series(k, n, omega)),
    "w-path": ({"w": 1},
               lambda k, n, omega, w: schroder.banded_w_series(k, _step(w), n, omega)),
}


def _seq_series(args) -> TSeries:
    family = args.family
    reads, build = _SEQ[family]
    given = {"k": args.k, "w": args.w, "j": args.j, "family": args.band_family}
    if "family" in reads:
        reads = {**reads, **_BAND[args.band_family or reads["family"]][0]}
    for flag, value in given.items():
        if value is not None and flag not in reads:
            raise UsageError(f"seq {family} does not read --{flag}")
    if args.N < 0:
        raise UsageError("--N must be nonnegative")
    bound = {flag: default if given[flag] is None else given[flag] for flag, default in reads.items()}
    if bound.get("j", 0) < 0:
        raise UsageError("--j must be nonnegative")
    return build(args.N, args.omega, **bound)


def _cmd_seq(args) -> int:
    _emit_series(_seq_series(args), args.omega, args.format)
    return 0


# Each matrix kind: its builder(n, omega).
_MATRIX = {
    "motzkin": lambda n, omega: motzkin.motzkin_matrix(n, omega),
    "motzkin-inverse": lambda n, omega: motzkin.inverse_motzkin_matrix(n, omega),
    "schroder": lambda n, omega: schroder.schroder_matrix_compressed(n, omega),
    "schroder-inverse": lambda n, omega: schroder.inverse_schroder_matrix(n, omega),
    "grand": lambda n, omega: motzkin.grand_matrix(n, omega),
}


def _cmd_matrix(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    _emit_matrix(_MATRIX[args.kind](args.n, args.omega), args.omega, args.format)
    return 0


def _cmd_hankel(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError("--n must be >= 1")
    if (args.alpha, args.beta) == (0, 0):
        raise UsageError("alpha and beta cannot both be zero")
    spec = hankel.HankelSpec(n, shift=args.shift, alpha=args.alpha, beta=args.beta)
    omega = args.omega
    det, closed = hankel.hankel_det(spec, omega), hankel.hankel_closed(spec, omega)
    agree = det == closed
    if args.format == "json":
        enc = (lambda v: v) if isinstance(omega, int) else (lambda v: v.to_json())
        print(_dump_json({"agree": agree, "closed_form": enc(closed), "determinant": enc(det)}))
    elif args.format == "csv":
        print(_csv_line(["determinant", "closed-form", "agree"]))
        print(_csv_line([str(det), str(closed), str(agree).lower()]))
    else:
        print(f"determinant: {det}")
        print(f"closed-form: {closed}")
        print(f"agree: {str(agree).lower()}")
    return 0 if agree else 1


def _first_failure(results):
    """The first failing CheckResult of an iterable (evaluated lazily), else PASS."""
    return next((r for r in results if not r), PASS)


def _theorem_schroeder(k, N):
    product = schroder.band_times_s(k, N)
    result = schroder.theorem_schroeder_check(k, N, product)
    extra = ["regular coefficients: " + " ".join(str(c) for c in product.coeffs[k:])] if result else []
    yield f"theorem-schroeder (k={k}, order {N})", result, extra


# Each verify suite, in the order `verify all` runs them: (the flags it reads,
# as {flag: (least accepted value, default)}, and its checks(**flags), which
# yield (name, CheckResult, extra output lines)); any other flag is an error.
_VERIFY = {
    "lemma": ({"max": (1, 12)}, lambda max: [
        (f"lemma (i, j <= {max})", motzkin.verify_lemma(max), [])]),
    "orthogonality": ({"max": (1, 12)}, lambda max: [
        (f"orthogonality (j <= {max})", motzkin.verify_orthogonality(max), [])]),
    "banded-recursion": ({"k": (1, 6), "N": (0, 30)}, lambda k, N: (
        (f"banded-recursion (k={band}, n <= {N})",
         motzkin.banded_motzkin_recursion_check(band, N), [])
        for band in range(1, k + 1))),
    "first-return": ({"N": (0, 30)}, lambda N: [
        (f"first-return (n <= {N})", motzkin.first_return_check(N), [])]),
    "delannoy": ({"N": (1, 15)}, lambda N: [
        (f"delannoy-recursion (n, j <= {N})", schroder.delannoy_recursion_check(N), [])]),
    "bridge": ({"N": (1, 20)}, lambda N: [
        (f"delannoy-s-bridge (n <= {N})", schroder.delannoy_s_bridge_check(N), [])]),
    "gould": ({"k": (0, 20)}, lambda k: [
        (f"gould-carlitz (k <= {k})", _first_failure(
            schroder.gould_identity_check(top, m)
            for top in range(k + 1) for m in range(top // 2 + 1)), [])]),
    "theorem-schroeder": ({"k": (2, 4), "N": (0, 12)}, _theorem_schroeder),
}


def _verify_selected(args):
    """Yield (name, CheckResult, extra_output_lines) for the selected suite."""
    which = args.which
    suites = list(_VERIFY) if which == "all" else [which]
    for flag in ("max", "k", "N"):
        value = getattr(args, flag)
        if value is None:
            continue
        readers = [suite for suite in suites if flag in _VERIFY[suite][0]]
        if not readers:
            raise UsageError(f"verify {which} does not read --{flag}")
        for suite in readers:
            least = _VERIFY[suite][0][flag][0]
            if value < least:
                raise UsageError(f"verify {suite} requires --{flag} >= {least}")
    for suite in suites:
        reads, checks = _VERIFY[suite]
        yield from checks(**{flag: default if getattr(args, flag) is None else getattr(args, flag)
                             for flag, (_, default) in reads.items()})


def _cmd_verify(args) -> int:
    lines = []
    records = []
    ok_all = True
    for name, result, extra in _verify_selected(args):
        ok_all = ok_all and bool(result)
        status = "PASS" if result else "FAIL"
        detail = "" if result else f": {result.detail}"
        lines.append(f"{status} {name}{detail}")
        lines.extend(extra)
        records.append({"name": name, "ok": bool(result), "detail": result.detail})
    if args.format == "json":
        print(_dump_json({"ok": ok_all, "results": records}))
    elif args.format == "csv":
        print(_csv_line(["name", "ok", "detail"]))
        for r in records:
            print(_csv_line([r["name"], str(r["ok"]).lower(), r["detail"]]))
    else:
        for line in lines:
            print(line)
    return 0 if ok_all else 1


def _cmd_typo_ledger() -> int:
    ok_all = True
    for d in discrepancies.REGISTRY:
        result = d.check()
        ok_all = ok_all and bool(result)
        status = "verified" if result else "UNRESOLVED"
        print(f"[{d.key}] {d.location}")
        print(f"  printed:  {d.printed}")
        print(f"  resolved: {d.resolved}")
        print(f"  status:   {status}")
    return 0 if ok_all else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    It holds no function objects: args.command names the subcommand, and
    main looks up its _cmd_ function in this module at each call, so a
    function replaced after the first call (as a tracer does) is the one
    that runs.  The whole tree is built here, every subcommand's parser
    included, and parser.commands maps each subcommand's name to its parser
    for main.
    """
    parser = argparse.ArgumentParser(
        prog="pathenum",
        description="Exact weighted lattice-path enumeration: sequences, triangles, determinants, identity checks.",
    )
    parser.add_argument(
        "--typo-ledger",
        action="store_true",
        help="print the registry of source-table discrepancies (with verification) and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p, omega=True):
        if omega:
            p.add_argument("--omega", type=_omega_arg, default=W,
                           help="integer weight, or 'symbolic' (default)")
        p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p_seq = sub.add_parser("seq", help="coefficient sequences")
    p_seq.add_argument("family", choices=tuple(_SEQ))
    p_seq.add_argument("--N", type=int, required=True, help="highest index (inclusive)")
    p_seq.add_argument("--k", type=int, help="band height (banded family)")
    p_seq.add_argument("--w", type=int, help="horizontal step length (w-path; default 1)")
    p_seq.add_argument("--j", type=int, help="ending height (column sequences; default 0)")
    p_seq.add_argument(
        "--family", dest="band_family", choices=tuple(_BAND),
        help="path family for banded sequences (default motzkin)",
    )
    add_common(p_seq)

    p_mat = sub.add_parser("matrix", help="triangular matrices")
    p_mat.add_argument("kind", choices=tuple(_MATRIX))
    p_mat.add_argument("--n", type=int, required=True, help="dimension")
    add_common(p_mat)

    p_han = sub.add_parser("hankel", help="Hankel determinant, two ways")
    p_han.add_argument("--n", type=int, required=True, help="dimension")
    p_han.add_argument("--alpha", type=int, default=1)
    p_han.add_argument("--beta", type=int, default=0)
    p_han.add_argument("--shift", type=int, choices=(0, 1, 2), default=0)
    add_common(p_han)

    p_ver = sub.add_parser("verify", help="identity verification suites")
    p_ver.add_argument("which", choices=(*_VERIFY, "all"))
    p_ver.add_argument("--max", type=int, help="index bound of lemma and orthogonality (default 12)")
    p_ver.add_argument("--k", type=int, help="band height / upper index bound")
    p_ver.add_argument("--N", type=int, help="horizon / truncation order")
    add_common(p_ver, omega=False)  # the suites check symbolically in w
    parser.commands = {"seq": p_seq, "matrix": p_mat, "hankel": p_han, "verify": p_ver}

    return parser


def main(argv=None) -> int:
    """Run one query (argv, or sys.argv[1:] when None) and return its exit code.

    An argv that begins with a subcommand's name is parsed by that
    subcommand's parser alone, into a Namespace that already records the
    command: the top-level parser would hand it every later argument unread,
    so the result is the same.  Arguments it leaves over are parsed again by
    the top-level parser, which exits 2 naming them.  Any other argv (no
    command, --typo-ledger, -h, an unknown command) is parsed by the
    top-level parser.  An argument that begins "--=" is the one exception
    (see the module docstring).
    """
    parser = _build_parser()
    # Int flags are read and values printed in full decimal, past Python's
    # default limit on int-str conversion (absent before 3.10.7), which is
    # restored after.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if argv is None:
            argv = sys.argv[1:]
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(
                argv[1:], argparse.Namespace(typo_ledger=False, command=argv[0]))
            if extras:  # argparse's own top-level error: "unrecognized arguments: ..."
                args = parser.parse_args(argv)
        if args.typo_ledger and args.command:
            print(f"error: --typo-ledger takes no command, got {args.command}", file=sys.stderr)
            return 2
        if not args.typo_ledger and not args.command:
            parser.print_usage(sys.stderr)
            return 2
        if args.typo_ledger:
            return _cmd_typo_ledger()
        return globals()[f"_cmd_{args.command}"](args)
    except SystemExit as exc:  # argparse's exit on a parse error or --help
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        partial = "; the output is partial" if isinstance(exc, _PartialOutput) else ""
        print(f"error: out of memory{partial}; ask for a smaller size", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send the flush at exit to the null device
        # and exit as SIGPIPE would (128 + 13)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
