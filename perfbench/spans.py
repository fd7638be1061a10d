"""Span tracing of the pathenum layers, installed from outside the package.

`Tracer.install` replaces each traced function at every place it is looked
up: a module-level function in every `pathenum` module that binds it (so
`vmul` is traced where `pathenum.algebra` calls it, and `motzkin_series`
also where `pathenum.hankel` imported it), and a method on its class under
every name that refers to it (so `__radd__` and `__rmul__` are traced with
`__add__` and `__mul__`).  The package itself is not changed.

A span records its name, start, end, parent span and query id.  Spans stay
in memory, in flat arrays, until `summary` aggregates them at the end of the
pass.  A span's self time is its duration minus the durations of its child
spans; a group's total time counts only its outermost spans, so recursion
inside a group is not counted twice.

Counters that need the arguments or the result of a call (operand sizes,
table cells, rebuilds) are taken by small hooks after the call returns;
they are exact and repeat from run to run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (group, module, attribute) for every traced callable; "Class.method"
# names a method.  Groups are the layers' metric prefixes.
TARGETS = (
    ("kernels.vmul", "pathenum.algebra", "vmul"),
    ("kernels.vaddsub", "pathenum.algebra", "vadd"),
    ("kernels.vaddsub", "pathenum.algebra", "vsub"),
    ("kernels.vaddsub", "pathenum.algebra", "vneg"),
    ("kernels.vaddsub", "pathenum.algebra", "vscale"),
    ("kernels.vdivexact", "pathenum.algebra", "vdivexact"),
    ("kernels.vdivexact", "pathenum.algebra", "vdivexact_int"),
    ("kernels.veval", "pathenum.algebra", "veval"),
    ("algebra.OmegaPoly", "pathenum.algebra", "OmegaPoly.__add__"),
    ("algebra.OmegaPoly", "pathenum.algebra", "OmegaPoly.__sub__"),
    ("algebra.OmegaPoly", "pathenum.algebra", "OmegaPoly.__rsub__"),
    ("algebra.OmegaPoly", "pathenum.algebra", "OmegaPoly.__neg__"),
    ("algebra.OmegaPoly", "pathenum.algebra", "OmegaPoly.__mul__"),
    ("algebra.OmegaPoly", "pathenum.algebra", "OmegaPoly.__pow__"),
    ("algebra.OmegaPoly", "pathenum.algebra", "OmegaPoly.exact_div"),
    ("algebra.OmegaPoly", "pathenum.algebra", "OmegaPoly.exact_div_int"),
    ("algebra.OmegaPoly", "pathenum.algebra", "OmegaPoly.evaluate"),
    ("algebra.TSeries.mul", "pathenum.algebra", "TSeries.__mul__"),
    ("algebra.TSeries.inverse", "pathenum.algebra", "TSeries.inverse"),
    ("algebra.TPoly.mul", "pathenum.algebra", "TPoly.__mul__"),
    ("algebra.RationalGF.expand", "pathenum.algebra", "RationalGF.expand"),
    ("oracle.CountTable", "pathenum.oracle", "CountTable.__init__"),
    ("matrices.TriMatrix.inverse_unit_lower", "pathenum.matrices", "TriMatrix.inverse_unit_lower"),
    ("matrices.TriMatrix.mul", "pathenum.matrices", "TriMatrix.__mul__"),
    ("motzkin.motzkin_series", "pathenum.motzkin", "motzkin_series"),
    ("motzkin.grand_motzkin_series", "pathenum.motzkin", "grand_motzkin_series"),
    ("motzkin.inverse_motzkin_entry", "pathenum.motzkin", "inverse_motzkin_entry"),
    ("schroder.w_series", "pathenum.schroder", "w_series"),
    ("schroder.schroder_series", "pathenum.schroder", "schroder_series"),
    ("schroder.w_p_poly", "pathenum.schroder", "w_p_poly"),
    ("schroder.inverse_schroder_poly", "pathenum.schroder", "inverse_schroder_poly"),
    ("schroder.delannoy_poly", "pathenum.schroder", "delannoy_poly"),
    ("hankel.det_fraction_free", "pathenum.hankel", "det_fraction_free"),
    ("hankel.hankel_matrix", "pathenum.hankel", "hankel_matrix"),
    ("hankel.closed_form", "pathenum.hankel", "shifted_hankel_closed"),
    ("hankel.closed_form", "pathenum.hankel", "second_hankel_closed"),
    ("cli.main", "pathenum.cli", "main"),
    ("cli.command", "pathenum.cli", "_cmd_seq"),
    ("cli.command", "pathenum.cli", "_cmd_matrix"),
    ("cli.command", "pathenum.cli", "_cmd_hankel"),
    ("cli.command", "pathenum.cli", "_cmd_verify"),
    ("cli.command", "pathenum.cli", "_cmd_typo_ledger"),
    ("cli.format", "pathenum.cli", "_emit_series"),
    ("cli.format", "pathenum.cli", "_emit_matrix"),
    ("cli.format", "pathenum.cli", "_dump_json"),
    ("cli.format", "pathenum.cli", "_csv_line"),
    ("cli.format", "pathenum.algebra", "OmegaPoly.__str__"),
    ("cli.format", "pathenum.algebra", "OmegaPoly.to_json"),
)

# Per-layer metrics: name -> (unit, the end-to-end metric it should move,
# on which workloads).  The name says how it is measured: see _source.
_MIX = "symbolic-mix, integer-mix"
METRICS = {
    "kernels.vmul.calls": ("count", "wall_s", _MIX),
    "kernels.vmul.self_s": ("s", "wall_s", _MIX),
    "kernels.vmul.coeff_products": ("count", "wall_s", _MIX),
    "kernels.vmul.max_bits": ("bits", "wall_s", _MIX),
    "kernels.vaddsub.calls": ("count", "query_p50_ms", "verify-sweep"),
    "kernels.vaddsub.self_s": ("s", "query_p50_ms", "verify-sweep"),
    "kernels.vdivexact.calls": ("count", "query_p90_ms", "symbolic-mix"),
    "kernels.vdivexact.self_s": ("s", "query_p90_ms", "symbolic-mix"),
    "kernels.vdivexact.inexact": ("count", "query_p90_ms", "symbolic-mix"),
    "kernels.veval.calls": ("count", "wall_s", "integer-mix"),
    "kernels.veval.self_s": ("s", "wall_s", "integer-mix"),
    "algebra.OmegaPoly.ops": ("count", "query_p50_ms", "verify-sweep"),
    "algebra.OmegaPoly.self_s": ("s", "query_p50_ms", "verify-sweep"),
    "algebra.OmegaPoly.max_degree": ("degree", "query_p50_ms", "verify-sweep"),
    "algebra.TSeries.mul.calls": ("count", "wall_s", "symbolic-mix"),
    "algebra.TSeries.mul.self_s": ("s", "wall_s", "symbolic-mix"),
    "algebra.TSeries.inverse.calls": ("count", "wall_s", "symbolic-mix"),
    "algebra.TSeries.inverse.self_s": ("s", "wall_s", "symbolic-mix"),
    "algebra.TPoly.mul.calls": ("count", "wall_s", "symbolic-mix"),
    "algebra.TPoly.mul.self_s": ("s", "wall_s", "symbolic-mix"),
    "algebra.RationalGF.expand.calls": ("count", "wall_s", "symbolic-mix"),
    "algebra.RationalGF.expand.self_s": ("s", "wall_s", "symbolic-mix"),
    "oracle.CountTable.builds": ("count", "wall_s, query_p50_ms", "verify-sweep"),
    "oracle.CountTable.cells": ("count", "wall_s, query_p50_ms", "verify-sweep"),
    "oracle.CountTable.self_s": ("s", "wall_s, query_p50_ms", "verify-sweep"),
    "oracle.CountTable.rebuild_ratio": ("ratio", "wall_s, query_p50_ms", "verify-sweep"),
    "matrices.TriMatrix.inverse_unit_lower.calls": ("count", "query_p90_ms", _MIX),
    "matrices.TriMatrix.inverse_unit_lower.self_s": ("s", "query_p90_ms", _MIX),
    "matrices.TriMatrix.mul.calls": ("count", "query_p90_ms", _MIX),
    "matrices.TriMatrix.mul.self_s": ("s", "query_p90_ms", _MIX),
    "motzkin.motzkin_series.calls": ("count", "wall_s", _MIX),
    "motzkin.motzkin_series.self_s": ("s", "wall_s", _MIX),
    "motzkin.motzkin_series.terms": ("count", "wall_s", _MIX),
    "motzkin.motzkin_series.rebuild_ratio": ("ratio", "wall_s, query_p50_ms", "verify-sweep"),
    "motzkin.grand_motzkin_series.calls": ("count", "wall_s", _MIX),
    "motzkin.grand_motzkin_series.total_s": ("s", "wall_s", _MIX),
    "motzkin.inverse_motzkin_entry.calls": ("count", "wall_s", _MIX),
    "motzkin.inverse_motzkin_entry.total_s": ("s", "wall_s", _MIX),
    "schroder.w_series.calls": ("count", "wall_s", "symbolic-mix"),
    "schroder.w_series.self_s": ("s", "wall_s", "symbolic-mix"),
    "schroder.schroder_series.calls": ("count", "wall_s", "symbolic-mix"),
    "schroder.schroder_series.self_s": ("s", "wall_s", "symbolic-mix"),
    "schroder.w_p_poly.calls": ("count", "wall_s", "symbolic-mix"),
    "schroder.w_p_poly.total_s": ("s", "wall_s", "symbolic-mix"),
    "schroder.inverse_schroder_poly.calls": ("count", "query_p50_ms", "verify-sweep"),
    "schroder.inverse_schroder_poly.total_s": ("s", "query_p50_ms", "verify-sweep"),
    "schroder.delannoy_poly.calls": ("count", "query_p50_ms", "verify-sweep"),
    "schroder.delannoy_poly.total_s": ("s", "query_p50_ms", "verify-sweep"),
    "hankel.det_fraction_free.calls": ("count", "query_p90_ms", _MIX),
    "hankel.det_fraction_free.self_s": ("s", "query_p90_ms", _MIX),
    "hankel.hankel_matrix.total_s": ("s", "query_p90_ms", _MIX),
    "hankel.closed_form.total_s": ("s", "query_p90_ms", _MIX),
    "cli.parse_s": ("s", "query_p50_ms", "all three"),
    "cli.format_s": ("s", "query_p50_ms; wall_s on banded queries", "all three"),
    "cli.output_bytes": ("bytes", "query_p50_ms; wall_s on banded queries", "all three"),
    "trace.spans": ("count", "none: the size of the trace", "all three"),
}

# Counts of work done; two traced passes over one query list must agree on
# every one of them exactly.
EXACT = tuple(name for name, (unit, _, _) in METRICS.items() if unit != "s")


_SPECIAL = {"cli.parse_s": ("self", "cli.main"), "cli.format_s": ("total", "cli.format"),
            "trace.spans": ("spans", None)}


def _source(name):
    """How a metric is measured: (kind, span group)."""
    if name in _SPECIAL:
        return _SPECIAL[name]
    group, _, field = name.rpartition(".")
    kind = {"calls": "calls", "ops": "calls", "builds": "calls", "self_s": "self",
            "total_s": "total", "rebuild_ratio": "rebuilds"}.get(field, "counter")
    return kind, group


COUNTERS = tuple(name for name in METRICS if _source(name)[0] == "counter")


def _bits(vec):
    return max(map(int.bit_length, vec), default=0)


def _observe_vmul(tracer, args, result):
    a, b = args
    c = tracer.counters
    c["kernels.vmul.coeff_products"] += len(a) * len(b)
    bits = max(_bits(a), _bits(b))
    if bits > c["kernels.vmul.max_bits"]:
        c["kernels.vmul.max_bits"] = bits


def _observe_divexact(tracer, args, result):
    if result is None:
        tracer.counters["kernels.vdivexact.inexact"] += 1


def _observe_omegapoly(tracer, args, result):
    degree = getattr(result, "degree", None)
    if degree is not None and degree > tracer.counters["algebra.OmegaPoly.max_degree"]:
        tracer.counters["algebra.OmegaPoly.max_degree"] = degree


def _observe_table(tracer, args, result):
    table = args[0]
    spec, n = table.spec, table.n_max
    height = {"grand": 2 * n + 1, "quadrant": n + 1}.get(spec.mode, spec.band)
    tracer.counters["oracle.CountTable.cells"] += (n + 1) * height
    tracer.note_build("oracle.CountTable", spec, n)


def _observe_motzkin(tracer, args, result):
    order = args[0]
    tracer.counters["motzkin.motzkin_series.terms"] += order + 1
    tracer.note_build("motzkin.motzkin_series", None, order)


OBSERVERS = {
    "vmul": _observe_vmul,
    "vdivexact": _observe_divexact,
    "vdivexact_int": _observe_divexact,
    "CountTable.__init__": _observe_table,
    "motzkin_series": _observe_motzkin,
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.groups = []              # group names; spans store a group index
        self.group = array("H")       # per span
        self.parent = array("q")
        self.query = array("l")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")       # no enclosing span of the same group
        self.qid = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.builds = {}              # group -> builds observed
        self.rebuilds = {}            # group -> builds this query had already made as large
        self.built = {}               # (group, key) -> largest size built in this query
        self.unbound = []             # targets this version of the package lacks
        self._stack = []
        self._depth = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pathenum" or name.startswith("pathenum."))]
        for group, module_name, attr in TARGETS:
            owner_name, _, name = attr.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                self.unbound.append(f"{module_name}.{attr}")
                continue
            observe = OBSERVERS.get(attr)
            if observe is None and group == "algebra.OmegaPoly":
                observe = _observe_omegapoly
            wrapper = self._wrap(original, group, observe)
            for site in [owner] if owner_name else modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)

    def _wrap(self, fn, group, observe):
        if group not in self.groups:
            self.groups.append(group)
            self._depth.append(0)
        g = self.groups.index(group)
        groups, parent, query = self.group, self.parent, self.query
        start, end, outer = self.start, self.end, self.outer
        stack, depth = self._stack, self._depth
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            groups.append(g)
            parent.append(stack[-1] if stack else -1)
            query.append(tracer.qid)
            outer.append(depth[g] == 0)
            end.append(0)
            stack.append(idx)
            depth[g] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[g] -= 1
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return functools.wraps(fn)(traced)

    def begin_query(self, qid):
        self.qid = qid
        self.built.clear()

    def note_build(self, group, key, size):
        """Count a build, and a rebuild when this query already built it as large."""
        self.builds[group] = self.builds.get(group, 0) + 1
        prev = self.built.get((group, key))
        if prev is not None and prev >= size:
            self.rebuilds[group] = self.rebuilds.get(group, 0) + 1
        if prev is None or size > prev:
            self.built[(group, key)] = size

    def count_output(self, text):
        self.counters["cli.output_bytes"] += len(text.encode())

    def summary(self):
        """The per-layer metrics of the spans and counters recorded so far."""
        n = len(self.start)
        calls = [0] * len(self.groups)
        self_ns = [0] * len(self.groups)
        total_ns = [0] * len(self.groups)
        child_ns = [0] * n
        start, end, parent, group, outer = self.start, self.end, self.parent, self.group, self.outer
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        for i in range(n):
            g = group[i]
            dur = end[i] - start[i]
            calls[g] += 1
            self_ns[g] += dur - child_ns[i]
            if outer[i]:
                total_ns[g] += dur

        def of(table, name):
            return table[self.groups.index(name)] if name in self.groups else 0

        out = {}
        for name in METRICS:
            kind, grp = _source(name)
            if kind == "calls":
                out[name] = of(calls, grp)
            elif kind == "self":
                out[name] = of(self_ns, grp) / 1e9
            elif kind == "total":
                out[name] = of(total_ns, grp) / 1e9
            elif kind == "counter":
                out[name] = self.counters[name]
            elif kind == "rebuilds":
                builds = self.builds.get(grp, 0)
                out[name] = self.rebuilds.get(grp, 0) / builds if builds else 0.0
            else:
                out[name] = n
        return out
