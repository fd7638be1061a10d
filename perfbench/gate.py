"""Correctness gate: every answer is checked against a construction that its
production path does not use.

References (a polynomial in w is a list of ints, lowest power first):

* `seq` over the Motzkin, grand, w-path, compressed Schroeder and Delannoy
  families: closed-form path counts.  A path with h horizontal steps of
  length s and m = n - s*h unit steps is a choice of where the h steps go
  among the h + m steps, times a ballot count (quadrant) or a binomial
  (grand) for the up and down steps.  Delannoy D(n, n) is the grand count
  with s = 2 to (2n, 0).
* banded `seq`: the dynamic-programming oracle `CountTable`.
* `matrix`: the same closed forms, and `inverse_motzkin_entry` /
  `inverse_schroder_entry` for the inverse triangles.
* `hankel`: `shifted_hankel_binomial`, `second_hankel_closed`, and for
  shift 2 the recursion det_n = det_(n-1) + (second Hankel det_n)^2; the
  determinant, the printed closed form and the agreement flag must all
  match.
* `verify`: exit code 0 and every suite reported as passed; the typo
  ledger: every entry verified.

With `--omega` the reference is evaluated at that weight.  Outputs are
parsed strictly, so a changed digit, a changed sign or a reordered value
fails the query.
"""

from __future__ import annotations

import csv
import json
from math import comb

from pathenum import hankel
from pathenum.algebra import OmegaPoly
from pathenum.motzkin import inverse_motzkin_entry
from pathenum.oracle import CountTable, PathSpec
from pathenum.schroder import inverse_schroder_entry


class Mismatch(Exception):
    """The output does not match the reference."""


# -- references --------------------------------------------------------------


def _norm(p):
    while p and not p[-1]:
        p.pop()
    return p


def _updown(m, j, quadrant):
    """Up/down paths of length m from height 0 to height j (>= 0 if quadrant)."""
    if (m - j) % 2 or abs(j) > m:
        return 0
    k = (m - j) // 2
    if quadrant:
        return comb(m, k) - (comb(m, k - 1) if k >= 1 else 0)
    return comb(m, k)


def path_count(n, j, step, quadrant):
    """Weighted paths to (n, j) with horizontal steps of length `step`."""
    out = []
    h = 0
    while step * h <= n:
        m = n - step * h
        out.append(comb(h + m, h) * _updown(m, j, quadrant))
        h += 1
    return _norm(out)


def _omega_poly(p):
    return list(p.coeffs)


def _banded(k, step, order, every=1):
    table = CountTable(PathSpec.banded(k, w=step), every * order)
    return [_omega_poly(table.value(every * n, 0)) for n in range(order + 1)]


def seq_reference(o):
    family, order, j, w = o["family"], int(o["--N"]), int(o.get("--j", 0)), int(o.get("--w", 1))
    if family == "motzkin":
        return [path_count(n + j, j, 1, True) for n in range(order + 1)]
    if family == "grand-motzkin":
        return [path_count(n, j, 1, False) for n in range(order + 1)]
    if family == "w-path":
        return [path_count(n, j, w, True) for n in range(order + 1)]
    if family == "schroder-compressed":
        return [path_count(2 * n + j, j, 2, True) for n in range(order + 1)]
    if family == "delannoy":
        return [path_count(2 * n, 0, 2, False) for n in range(order + 1)]
    k, band = int(o["--k"]), o.get("--family", "motzkin")
    if band == "motzkin":
        return _banded(k, 1, order)
    if band == "schroder":
        return _banded(k, 2, order, every=2)
    return _banded(k, w, order)


def matrix_reference(o):
    kind, n = o["kind"], int(o["--n"])
    entry = {
        "motzkin": lambda i, j: path_count(i, j, 1, True),
        "grand": lambda i, j: path_count(i, j, 1, False),
        "schroder": lambda i, j: path_count(2 * i - j, j, 2, True),
        "motzkin-inverse": lambda i, j: _omega_poly(inverse_motzkin_entry(i, j)),
        "schroder-inverse": lambda i, j: _omega_poly(inverse_schroder_entry(i, j)),
    }[kind]
    return [[entry(i, j) for j in range(i + 1)] for i in range(n)]


def hankel_reference(o):
    n, shift = int(o["--n"]), int(o.get("--shift", 0))
    alpha, beta = int(o.get("--alpha", 1)), int(o.get("--beta", 0))
    if shift == 0:
        return _omega_poly(hankel.shifted_hankel_binomial(n, alpha, beta))
    if shift == 1:
        return _omega_poly(hankel.second_hankel_closed(n))
    det = OmegaPoly([1])
    for d in range(1, n + 1):
        a = hankel.second_hankel_closed(d)
        det = det + a * a
    return _omega_poly(det)


def _at(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


# -- output parsing -----------------------------------------------------------


def _nat(text):
    """A decimal natural number, written the way the CLI writes one."""
    if not text.isdigit() or (len(text) > 1 and text[0] == "0"):
        raise Mismatch(f"not a number: {text[:40]!r}")
    return int(text)


def _int(text):
    return -_nat(text[1:]) if text.startswith("-") else _nat(text)


def parse_poly(text):
    """Inverse of the CLI's plain rendering of a polynomial in w."""
    if text == "0":
        return []
    tokens = text.split(" ")
    if len(tokens) % 2 == 0:
        raise Mismatch(f"malformed polynomial: {text[:60]!r}")
    terms = [tokens[0]]
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        if sign not in ("+", "-") or body.startswith("-"):
            raise Mismatch(f"malformed polynomial: {text[:60]!r}")
        terms.append("-" + body if sign == "-" else body)
    out = []
    for term in terms:
        body = term[1:] if term.startswith("-") else term
        if "w" in body:
            coef, power = body.split("w", 1)
            if coef and not coef.endswith("*") or power and not power.startswith("^"):
                raise Mismatch(f"malformed term: {term!r}")
            mag = _nat(coef[:-1]) if coef else 1
            exp = _nat(power[1:]) if power else 1
            if coef and mag < 2 or power and exp < 2:
                raise Mismatch(f"non-canonical term: {term!r}")
        else:
            mag, exp = _nat(body), 0
        if mag == 0 or exp < len(out):
            raise Mismatch(f"malformed term: {term!r}")
        out += [0] * (exp - len(out)) + [-mag if term.startswith("-") else mag]
    return out


def _json_poly(value):
    if not isinstance(value, list):
        raise Mismatch("expected a coefficient list")
    return [_int(s) for s in value]


def _rows(fmt, text, symbolic):
    """The values of a seq or matrix answer, as a list of rows."""
    lines = text.split("\n")
    if fmt == "csv":
        rows = list(csv.reader(lines))
        return [[parse_poly(c) if symbolic else _int(c) for c in row] for row in rows]
    return [[parse_poly(c) if symbolic else _int(c) for c in line.split("; " if symbolic else " ")]
            for line in lines]


def _expect(got, want, what):
    if got != want:
        raise Mismatch(f"{what}: got {str(got)[:80]}, want {str(want)[:80]}")


def _check_values(o, text, want_rows, key):
    """Compare a seq (one row) or matrix answer with its reference rows."""
    fmt, omega = o.get("--format", "plain"), o.get("--omega")
    symbolic = omega is None
    if not symbolic:
        want_rows = [[_at(p, int(omega)) for p in row] for row in want_rows]
    if fmt == "json":
        data = json.loads(text)
        if key == "order":
            _expect(data.get("order"), len(want_rows[0]) - 1, "order")
            rows = [[_json_poly(c) for c in data["coeffs"]]] if symbolic else [data["values"]]
            _expect(sorted(data), ["coeffs", "order"] if symbolic else ["order", "values"], "keys")
        else:
            _expect(data.get("n"), len(want_rows), "n")
            _expect(sorted(data), ["n", "rows"], "keys")
            rows = [[_json_poly(c) for c in r] for r in data["rows"]] if symbolic else data["rows"]
    else:
        rows = _rows(fmt, text, symbolic)
    _expect(rows, want_rows, "values")


def _check_hankel(o, text, want):
    fmt, omega = o.get("--format", "plain"), o.get("--omega")
    symbolic = omega is None
    if not symbolic:
        want = _at(want, int(omega))
    if fmt == "json":
        data = json.loads(text)
        _expect(sorted(data), ["agree", "closed_form", "determinant"], "keys")
        det, closed, agree = data["determinant"], data["closed_form"], data["agree"]
        if symbolic:
            det, closed = _json_poly(det), _json_poly(closed)
        _expect(agree, True, "agree")
    else:
        if fmt == "csv":
            rows = list(csv.reader(text.split("\n")))
            _expect(rows[0], ["determinant", "closed-form", "agree"], "header")
            _expect(len(rows), 2, "rows")
            det, closed, agree = rows[1]
        else:
            lines = text.split("\n")
            _expect(len(lines), 3, "lines")
            labels = ["determinant: ", "closed-form: ", "agree: "]
            for label, line in zip(labels, lines):
                if not line.startswith(label):
                    raise Mismatch(f"expected {label!r}, got {line[:40]!r}")
            det, closed, agree = (line[len(label):] for label, line in zip(labels, lines))
        _expect(agree, "true", "agree")
        det, closed = (parse_poly(v) if symbolic else _int(v) for v in (det, closed))
    _expect(det, want, "determinant")
    _expect(closed, want, "closed form")


def _check_verify(o, text):
    fmt = o.get("--format", "plain")
    if fmt == "json":
        data = json.loads(text)
        if data.get("ok") is not True or not data["results"]:
            raise Mismatch("verify reported failure")
        for r in data["results"]:
            _expect(r.get("ok"), True, f"suite {r.get('name')}")
    elif fmt == "csv":
        rows = list(csv.reader(text.split("\n")))
        _expect(rows[0], ["name", "ok", "detail"], "header")
        if len(rows) < 2:
            raise Mismatch("no suites reported")
        for row in rows[1:]:
            _expect(row[1:], ["true", ""], f"suite {row[0]}")
    else:
        lines = text.split("\n")
        for i, line in enumerate(lines):
            extra = (line.startswith("regular coefficients: ") and i > 0
                     and lines[i - 1].startswith("PASS theorem-schroeder"))
            if not (line.startswith("PASS ") or extra):
                raise Mismatch(f"line {i}: {line[:60]!r}")


def _check_ledger(text):
    status = [line for line in text.split("\n") if line.startswith("  status:")]
    if not status or len(status) * 4 != len(text.split("\n")):
        raise Mismatch("malformed typo ledger")
    for line in status:
        _expect(line, "  status:   verified", "ledger entry")


# -- the gate -----------------------------------------------------------------


def options(argv):
    """The generated argv list as a dict: command, positional role, flags."""
    o = {"command": argv[0]}
    rest = argv[1:]
    role = {"seq": "family", "matrix": "kind", "verify": "which"}.get(argv[0])
    if role:
        o[role], rest = rest[0], rest[1:]
    o.update(zip(rest[0::2], rest[1::2]))
    return o


REFERENCES = {"seq": seq_reference, "matrix": matrix_reference, "hankel": hankel_reference}


class Reference:
    """Checks answers, computing each query's reference once."""

    def __init__(self):
        self._cache = {}

    def _want(self, o):
        # the reference does not depend on how the answer is printed
        key = tuple((k, v) for k, v in o.items() if k not in ("--format", "--omega"))
        if key not in self._cache:
            self._cache[key] = REFERENCES[o["command"]](o)
        return self._cache[key]

    def check(self, argv, rc, error, output):
        """None if the answer is right, else the reason it is not."""
        if error is not None:
            return error
        if rc != 0:
            return f"exit code {rc}"
        if not output.endswith("\n"):
            return "output does not end with a newline"
        text = output[:-1]
        o = options(argv)
        command = o["command"]
        try:
            want = self._want(o) if command in REFERENCES else None
        except Exception as exc:  # the query fails; the run goes on
            return f"no reference: {type(exc).__name__}: {exc}"[:300]
        try:
            if command == "seq":
                _check_values(o, text, [want], "order")
            elif command == "matrix":
                _check_values(o, text, want, "n")
            elif command == "hankel":
                _check_hankel(o, text, want)
            elif command == "verify":
                _check_verify(o, text)
            elif command == "--typo-ledger":
                _check_ledger(text)
            else:
                return f"no reference for {command!r}"
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return f"unparsable output: {type(exc).__name__}: {exc}"[:300]
        return None


def mutants(argv, rc, output):
    """Wrong answers (exit code, output) made from a right one, for the
    gate's self-test: each must be rejected."""
    out = [(rc + 1, output), (rc, "")]
    if argv[0] in ("seq", "matrix", "hankel"):
        digits = [i for i, ch in enumerate(output) if ch.isdigit()]
        for i in digits[-1:]:
            out.append((rc, output[:i] + str((int(output[i]) + 1) % 10) + output[i + 1:]))
    for a, b in (("PASS", "FAIL"), ("verified", "UNRESOLVED"), ("true", "false")):
        if a in output:
            out.append((rc, output.replace(a, b, 1)))
    return out
