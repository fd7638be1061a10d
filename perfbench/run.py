"""Benchmark of the pathenum command line, end to end and layer by layer.

    python3 perfbench/run.py --workload symbolic-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src`, as a
normal checkout runs it (no extension is built or forced).

The seed generates the workload's query list (see workloads.py).  One
client answers the list through `pathenum.cli.main`, one query at a time,
in a fresh process per pass (client.py), and passes are repeated for
`--seconds`.  Every answer is checked against an independent reference
outside the timed region (gate.py), and the gate must reject a set of
deliberately wrong answers to the same queries.

--trace 0 reports the end-to-end metrics:

    setup_s       time for a fresh interpreter to import pathenum.cli and
                  build its parser: the median of several starts
    wall_s        time to answer the whole list once: the sum of the
                  latencies of its queries
    query_p50_ms  median latency of a query
    query_p90_ms  90th percentile of the latency of a query
    peak_rss_mb   peak resident memory of the client process: the median
                  over passes

The host is shared, and its speed drifts by up to a factor of two within a
minute.  So every time above is stated at the reference speed of probe.py:
a fixed piece of pure-Python work, outside the package, is timed just
before and just after each query, and the query's time is multiplied by
probe.REFERENCE_S over the mean of the two probe times (set-up is scaled
by the median probe time of its starts).  A change to the package moves
these times as it moves the measured ones; a change of the host's speed,
as far as the probe follows it, does not.  A query's latency is then its
median over the passes.

The percentiles are Harrell-Davis estimates, means of all the latencies
weighted around the percentile's rank.  The latencies of a list are sparse
in its tail (on verify-sweep the two queries on either side of the 90th
percentile differ by half), so the plain order statistic jumps whenever
two queries there trade places.

The record above the result gives the measured (unscaled) times too, the
time of each pass and fail_ratio, the share of attempted queries that
failed.

--trace 1 runs one untraced and two traced passes of the same list and
reports the per-layer metrics of spans.py and the tracing overhead (traced
minus untraced wall_s).  The traced answers must equal the untraced ones
byte for byte, and the two traced passes must agree on every count.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_STARTS = 21
MIN_PASSES = 3
QUERY_TIMEOUT_S = 60
PASS_DEADLINE_S = 150   # no pass runs past this many seconds after the start
END_TO_END = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
              "peak_rss_mb": "MB"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup():
    """Seconds from starting a fresh interpreter to an imported CLI with its
    parser built, as the median of several starts: (measured, scaled).

    The child reads the same monotonic clock once its parser is built, so
    neither its exit nor the parent's wait is counted.  The first start,
    which may compile bytecode, is not counted.  The host probe runs in the
    parent before and after each start; a start is scaled by the median of
    all the probes, as one probe is less steady than one start.
    """
    cmd = [sys.executable, "-c",
           "import time, pathenum.cli as cli; cli._build_parser(); print(time.perf_counter())"]
    times, probes = [], []
    for i in range(SETUP_STARTS + 1):
        probes.append(probe.probe())
        t0 = time.perf_counter()
        child = subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, timeout=60,
                               capture_output=True, text=True)
        if i:
            times.append(float(child.stdout) - t0)
    probes.append(probe.probe())
    setup_s = statistics.median(times)
    return setup_s, setup_s * probe.REFERENCE_S / statistics.median(probes)


def _scale(seconds, before, after):
    """`seconds` stated at the reference speed of the host probe."""
    return seconds * probe.REFERENCE_S / ((before + after) / 2)


class Pass:
    """The answers of one client process to the whole query list."""

    def __init__(self, queries, trace, deadline):
        request = json.dumps({"queries": queries, "trace": trace, "timeout_s": QUERY_TIMEOUT_S})
        proc = subprocess.Popen([sys.executable, str(HERE / "client.py")], env=_env(), cwd=ROOT,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(request, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        self.answers, self.last = [], {}
        for line in out.splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # a line cut short by the kill
            if record.get("done"):
                self.last = record
            else:
                self.answers.append(record)
        cut = f"no answer: client exited with code {proc.returncode}: {err.strip()[-300:]}"
        self.answers += [{"rc": None, "error": cut, "latency_s": None, "output": ""}
                         for _ in range(len(queries) - len(self.answers))]
        self.latencies = [a["latency_s"] for a in self.answers]  # None: the pass was cut
        self.scaled = [None if a["latency_s"] is None else _scale(a["latency_s"], *a["probe_s"])
                       for a in self.answers]
        self.wall_s = sum(x or 0 for x in self.latencies)


def run_passes(queries, seconds, start):
    """Passes until `seconds` are used, at least MIN_PASSES, within the deadline."""
    passes = []
    t0 = time.monotonic()
    deadline = start + PASS_DEADLINE_S
    while True:
        passes.append(Pass(queries, False, deadline))
        elapsed = time.monotonic() - t0
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            return passes
        if time.monotonic() + per_pass > deadline:
            return passes


def check_answers(queries, passes):
    """(failed answers, wrong answers the gate accepted, wrong answers tried)."""
    import gate  # imports pathenum, which the timed passes must not share

    ref = gate.Reference()
    failed = 0
    verdicts = {}
    for p_index, p in enumerate(passes):
        for i, (argv, a) in enumerate(zip(queries, p.answers)):
            key = (i, a["rc"], a["error"], a["output"])
            if key not in verdicts:
                verdicts[key] = ref.check(argv, a["rc"], a["error"], a["output"])
            if verdicts[key] is not None:
                failed += 1
                print(f"# FAIL pass {p_index} query {i} {' '.join(argv)}: {verdicts[key]} "
                      f"{a.get('stderr', '')}", file=sys.stderr)
    # self-test: wrong answers to one right-answered query of each command
    accepted, tried, seen = 0, 0, set()
    for i, (argv, a) in enumerate(zip(queries, passes[0].answers)):
        if argv[0] in seen or verdicts[(i, a["rc"], a["error"], a["output"])] is not None:
            continue
        seen.add(argv[0])
        for rc, output in gate.mutants(argv, a["rc"], a["output"]):
            tried += 1
            if ref.check(argv, rc, None, output) is None:
                accepted += 1
                print(f"# gate accepted a wrong answer to {' '.join(argv)}: {output[:80]!r}",
                      file=sys.stderr)
    return failed, accepted, tried


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line[:12]
    except OSError:
        pass
    return "unknown"


def print_record(args, queries, passes, failed, accepted, tried):
    import pathenum

    attempted = len(passes) * len(queries)
    print(f"# workload={args.workload} seed={args.seed} queries={len(queries)} "
          f"digest={workloads.digest(queries)} passes={len(passes)}")
    print(f"# python={sys.version.split()[0]} git={git_revision()} "
          f"nproc={len(os.sched_getaffinity(0))} "
          f"backend={getattr(pathenum, 'BACKEND', 'unnamed')}")
    print("# wall_s of each pass: " + " ".join(f"{p.wall_s:.4f}" for p in passes))
    print(f"# fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} queries)")
    print(f"# gate self-test: rejected {tried - accepted} of {tried} wrong answers")


def _per_query(per_pass):
    """Each query's median latency over the passes that answered it."""
    return [statistics.median(x for x in t if x is not None)
            for t in zip(*per_pass) if t.count(None) < len(t)]


def harrell_davis(values, p):
    """The Harrell-Davis estimate of the p-quantile of `values`: the mean of
    the order statistics, the i-th of n weighted by the mass of the
    Beta(p (n+1), (1-p) (n+1)) distribution on [(i-1)/n, i/n] (by
    Simpson's rule on 32 intervals)."""
    steps = 32
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    h = 1 / (n * steps)
    weights = [density(i / n) + density((i + 1) / n)
               + sum((4 if k % 2 else 2) * density(i / n + k * h) for k in range(1, steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _latency_metrics(latencies):
    return {"wall_s": sum(latencies),
            "query_p50_ms": 1e3 * harrell_davis(latencies, 0.5),
            "query_p90_ms": 1e3 * harrell_davis(latencies, 0.9)}


def timed_run(args, queries, start):
    setup_s, setup_scaled = measure_setup()
    passes = run_passes(queries, args.seconds, start)
    # The median over passes keeps a query's time from resting on one
    # moment of the shared host.
    peak_rss_mb = statistics.median(p.last.get("peak_rss_kb", 0) / 1024 for p in passes)
    measured = {"setup_s": setup_s, **_latency_metrics(_per_query(p.latencies for p in passes)),
                "peak_rss_mb": peak_rss_mb}
    metrics = {"setup_s": setup_scaled, **_latency_metrics(_per_query(p.scaled for p in passes)),
               "peak_rss_mb": peak_rss_mb}
    failed, accepted, tried = check_answers(queries, passes)
    print_record(args, queries, passes, failed, accepted, tried)
    for name, unit in END_TO_END.items():
        note = "" if name == "peak_rss_mb" else f" (measured {measured[name]:.6g} {unit})"
        print(f"# {name} = {metrics[name]:.6g} {unit}{note}")
    return {"correct": failed == 0 and accepted == 0,
            "attempted": len(passes) * len(queries), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END.items()}}


def traced_run(args, queries, start):
    deadline = start + PASS_DEADLINE_S
    plain = Pass(queries, False, deadline)
    traced = [Pass(queries, True, deadline) for _ in range(2)]
    failed, accepted, tried = check_answers(queries, [plain] + traced)
    identical = all((a["rc"], a["output"]) == (b["rc"], b["output"])
                    for t in traced for a, b in zip(plain.answers, t.answers))
    layers = [t.last.get("layers", {}) for t in traced]
    unrepeated = [name for name in spans.EXACT if layers[0].get(name) != layers[1].get(name)]
    metrics = dict(layers[0], **{"trace.overhead_s": traced[0].wall_s - plain.wall_s})
    print_record(args, queries, [plain] + traced, failed, accepted, tried)
    print(f"# wall_s untraced = {plain.wall_s:.6g} s, traced = {traced[0].wall_s:.6g} s")
    print(f"# traced answers byte-identical to untraced: {identical}")
    print(f"# counts repeat across the two traced passes: {not unrepeated} {unrepeated}")
    print(f"# traced functions missing from the package: {traced[0].last.get('unbound')}")
    units = {name: unit for name, (unit, _, _) in spans.METRICS.items()}
    units["trace.overhead_s"] = "s"
    ok = failed == 0 and accepted == 0 and identical and not unrepeated and all(layers)
    return {"correct": ok, "attempted": 3 * len(queries), "failed": failed,
            "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30, help="measured time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pathenum" / "cli.py").is_file():
        print(f"error: no pathenum sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    queries = workloads.generate(args.workload, args.seed)
    result = (traced_run if args.trace else timed_run)(args, queries, start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
