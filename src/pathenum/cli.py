"""Command-line surface: sequences, matrices, determinants, verifications.

Subcommands: seq | matrix | hankel | verify.  The weight is symbolic by
default; pass --omega with an integer to seq, matrix or hankel to
specialize (verify always checks symbolically).  An integer weight is bound
before anything is built and passed to the builders as a plain int: every
series, triangle, Hankel determinant and Hankel closed form is then
computed over Z on int scalars, not over Z[w].  seq and verify reject any
flag the chosen family or suite does not read, and verify rejects a bound
below its suite's domain.  Exit codes: 0 success, 1 a mathematical
disagreement was detected, 2 usage error.  All output is deterministic and
large integers are printed in full decimal.

The argument parser is built once per process, on first use.  It records
the subcommand's name, and main looks up its _cmd_ function at each call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import discrepancies, hankel, motzkin, schroder
from .algebra import W, TSeries
from .checks import PASS
from .matrices import TriMatrix


class UsageError(Exception):
    pass


def _omega_arg(text: str):
    if text == "symbolic":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"omega must be an integer or 'symbolic', got {text!r}"
        )


def _weight(args):
    """The weight the builders take: W, or the integer --omega as an int."""
    return W if args.omega is None else args.omega


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_line(row) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(row)
    return buf.getvalue()


def _emit_series(ts: TSeries, omega, fmt: str) -> str:
    if omega is None:
        if fmt == "plain":
            return "; ".join(str(c) for c in ts.coeffs)
        if fmt == "csv":
            return _csv_line([str(c) for c in ts.coeffs])
        return _dump_json(ts.to_json())
    values = ts.int_coeffs()  # raises if the weight was not bound in the builder
    if fmt == "plain":
        return " ".join(str(v) for v in values)
    if fmt == "csv":
        return _csv_line(values)
    return _dump_json({"order": ts.order, "values": values})


def _emit_matrix(m: TriMatrix, omega, fmt: str) -> str:
    if omega is not None:
        rows = m.int_rows()  # raises if the weight was not bound in the builder
        if fmt == "plain":
            return "\n".join(" ".join(str(v) for v in row) for row in rows)
        if fmt == "csv":
            return "\n".join(_csv_line(row) for row in rows)
        return _dump_json({"n": m.n, "rows": rows})
    if fmt == "plain":
        return "\n".join("; ".join(str(e) for e in row) for row in m.rows)
    if fmt == "csv":
        return "\n".join(_csv_line([str(e) for e in row]) for row in m.rows)
    return _dump_json({"n": m.n, "rows": [[e.to_json() for e in row] for row in m.rows]})


# The optional flags each seq family reads; any other flag given is an error.
# banded also reads --w when its --family is w-path.
_SEQ_FLAGS = {
    "motzkin": ("j",),
    "grand-motzkin": ("j",),
    "w-path": ("j", "w"),
    "schroder-compressed": ("j",),
    "delannoy": (),
    "banded": ("k", "family"),
}


def _seq_series(args) -> TSeries:
    family, order = args.family, args.N
    reads = _SEQ_FLAGS[family]
    if family == "banded" and args.band_family == "w-path":
        reads += ("w",)
    for flag, value in (("k", args.k), ("w", args.w), ("j", args.j), ("family", args.band_family)):
        if value is not None and flag not in reads:
            raise UsageError(f"seq {family} does not read --{flag}")
    j = 0 if args.j is None else args.j
    w = 1 if args.w is None else args.w
    omega = _weight(args)
    if order < 0:
        raise UsageError("--N must be nonnegative")
    if j < 0:
        raise UsageError("--j must be nonnegative")
    if family == "motzkin":
        return motzkin.motzkin_column_gf(j, order, omega)
    if family == "grand-motzkin":
        return motzkin.grand_column_gf(j, order, omega)
    if family == "w-path":
        if w < 1:
            raise UsageError("--w must be a positive step length")
        return schroder.w_column_gf(j, w, order, omega)
    if family == "schroder-compressed":
        return schroder.compressed_column_gf(j, order, omega)
    if family == "delannoy":
        return schroder.central_delannoy_series(order, omega)
    # banded
    if args.k is None or args.k < 1:
        raise UsageError("banded sequences require a band height --k >= 1")
    if args.band_family in (None, "motzkin"):
        return motzkin.banded_motzkin_gf(args.k, omega).expand(order)
    if args.band_family == "schroder":
        return schroder.banded_schroder_series(args.k, order, omega)
    if w < 1:
        raise UsageError("--w must be a positive step length")
    return schroder.banded_w_gf(args.k, w, omega).expand(order)


def _cmd_seq(args) -> int:
    print(_emit_series(_seq_series(args), args.omega, args.format))
    return 0


def _cmd_matrix(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    build = {
        "motzkin": motzkin.motzkin_matrix,
        "motzkin-inverse": motzkin.inverse_motzkin_matrix,
        "schroder": schroder.schroder_matrix_compressed,
        "schroder-inverse": schroder.inverse_schroder_matrix,
        "grand": motzkin.grand_matrix,
    }[args.kind]
    print(_emit_matrix(build(args.n, _weight(args)), args.omega, args.format))
    return 0


def _cmd_hankel(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError("--n must be >= 1")
    shift = args.shift
    if shift and (args.alpha != 1 or args.beta != 0):
        raise UsageError("--shift is only meaningful with the default (alpha, beta) = (1, 0)")
    if (args.alpha, args.beta) == (0, 0):
        raise UsageError("alpha and beta cannot both be zero")
    spec = hankel.HankelSpec(n, shift=shift, alpha=args.alpha, beta=args.beta)
    omega = _weight(args)
    det, closed = hankel.hankel_det(spec, omega), hankel.hankel_closed(spec, omega)
    agree = det == closed
    if args.format == "json":
        enc = (lambda v: v.to_json()) if args.omega is None else (lambda v: v)
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


# The flags each verify suite reads, as flag: (least accepted value, default),
# in the order `verify all` runs the suites; any other flag given is an error.
_VERIFY_FLAGS = {
    "lemma": {"max": (1, 12)},
    "orthogonality": {"max": (1, 12)},
    "banded-recursion": {"k": (1, 6), "N": (0, 30)},
    "first-return": {"N": (0, 30)},
    "delannoy": {"N": (1, 15)},
    "bridge": {"N": (1, 20)},
    "gould": {"k": (0, 20)},
    "theorem-schroeder": {"k": (2, 4), "N": (0, 12)},
}


def _verify_selected(args):
    """Yield (name, CheckResult, extra_output_lines) for the selected suite."""
    which = args.which
    suites = list(_VERIFY_FLAGS) if which == "all" else [which]
    for flag in ("max", "k", "N"):
        value = getattr(args, flag)
        if value is None:
            continue
        readers = [suite for suite in suites if flag in _VERIFY_FLAGS[suite]]
        if not readers:
            raise UsageError(f"verify {which} does not read --{flag}")
        for suite in readers:
            least = _VERIFY_FLAGS[suite][flag][0]
            if value < least:
                raise UsageError(f"verify {suite} requires --{flag} >= {least}")
    for suite in suites:
        bound = {
            flag: default if getattr(args, flag) is None else getattr(args, flag)
            for flag, (_, default) in _VERIFY_FLAGS[suite].items()
        }
        k, n = bound.get("k"), bound.get("N", bound.get("max"))  # no suite reads both
        if suite == "lemma":
            yield f"lemma (i, j <= {n})", motzkin.verify_lemma(n), []
        elif suite == "orthogonality":
            yield f"orthogonality (j <= {n})", motzkin.verify_orthogonality(n), []
        elif suite == "banded-recursion":
            for band in range(1, k + 1):
                yield (
                    f"banded-recursion (k={band}, n <= {n})",
                    motzkin.banded_motzkin_recursion_check(band, n),
                    [],
                )
        elif suite == "first-return":
            yield f"first-return (n <= {n})", motzkin.first_return_check(n), []
        elif suite == "delannoy":
            yield f"delannoy-recursion (n, j <= {n})", schroder.delannoy_recursion_check(n), []
        elif suite == "bridge":
            yield f"delannoy-s-bridge (n <= {n})", schroder.delannoy_s_bridge_check(n), []
        elif suite == "gould":
            checks = (schroder.gould_identity_check(top, m)
                      for top in range(k + 1) for m in range(top // 2 + 1))
            yield f"gould-carlitz (k <= {k})", _first_failure(checks), []
        else:  # theorem-schroeder
            product = schroder.band_times_s(k, n)
            result = schroder.theorem_schroeder_check(k, n, product)
            extra = []
            if result:
                regular = product.coeffs[k:]
                extra.append("regular coefficients: " + " ".join(str(c) for c in regular))
            yield f"theorem-schroeder (k={k}, order {n})", result, extra


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
    that runs.
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
            p.add_argument("--omega", type=_omega_arg, default=None,
                           help="integer weight, or 'symbolic' (default)")
        p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p_seq = sub.add_parser("seq", help="coefficient sequences")
    p_seq.add_argument(
        "family",
        choices=("motzkin", "grand-motzkin", "w-path", "schroder-compressed", "delannoy", "banded"),
    )
    p_seq.add_argument("--N", type=int, required=True, help="highest index (inclusive)")
    p_seq.add_argument("--k", type=int, help="band height (banded family)")
    p_seq.add_argument("--w", type=int, help="horizontal step length (w-path; default 1)")
    p_seq.add_argument("--j", type=int, help="ending height (column sequences; default 0)")
    p_seq.add_argument(
        "--family", dest="band_family", choices=("motzkin", "schroder", "w-path"),
        help="path family for banded sequences (default motzkin)",
    )
    add_common(p_seq)

    p_mat = sub.add_parser("matrix", help="triangular matrices")
    p_mat.add_argument(
        "kind",
        choices=("motzkin", "motzkin-inverse", "schroder", "schroder-inverse", "grand"),
    )
    p_mat.add_argument("--n", type=int, required=True, help="dimension")
    add_common(p_mat)

    p_han = sub.add_parser("hankel", help="Hankel determinant, two ways")
    p_han.add_argument("--n", type=int, required=True, help="dimension")
    p_han.add_argument("--alpha", type=int, default=1)
    p_han.add_argument("--beta", type=int, default=0)
    p_han.add_argument("--shift", type=int, choices=(0, 1, 2), default=0)
    add_common(p_han)

    p_ver = sub.add_parser("verify", help="identity verification suites")
    p_ver.add_argument(
        "which",
        choices=(
            "lemma", "orthogonality", "banded-recursion", "first-return",
            "delannoy", "bridge", "gould", "theorem-schroeder", "all",
        ),
    )
    p_ver.add_argument("--max", type=int, help="index bound of lemma and orthogonality (default 12)")
    p_ver.add_argument("--k", type=int, help="band height / upper index bound")
    p_ver.add_argument("--N", type=int, help="horizon / truncation order")
    add_common(p_ver, omega=False)  # the suites check symbolically in w

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.typo_ledger:
        return _cmd_typo_ledger()
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    # Values are printed in full decimal, past Python's default limit on
    # int-to-str conversion (absent before 3.10.7), which is restored after.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
