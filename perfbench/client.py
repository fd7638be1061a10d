"""One pass of a query list through `pathenum.cli.main`, in a fresh process.

Reads a JSON request from standard input:

    {"queries": [[argv...], ...], "trace": false, "timeout_s": 60}

and answers the queries one at a time, in order (a closed loop with one
client).  For each query it writes one JSON line to standard output with
the exit code, the captured standard output, the error if the query
raised, the latency of `cli.main`, and the times of the host probe
(probe.py) run just before and just after the query.  A last line carries
the peak resident memory of this process and, when tracing, the per-layer
figures.

Each pass runs in its own process so that nothing one pass builds or
caches can serve the next: a CLI user pays for every invocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time

from pathenum import cli
from probe import probe

WARMUP = ["seq", "motzkin", "--N", "0"]


class QueryTimeout(Exception):
    """The query ran past its time limit."""


def _on_alarm(signum, frame):
    raise QueryTimeout("query exceeded its time limit")


def run_query(argv, timeout_s):
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    before = probe()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # every failure is recorded, none ends the pass
        error = f"{type(exc).__name__}: {exc}"[:500]
    finally:
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"rc": rc, "error": error, "latency_s": latency, "probe_s": [before, probe()],
            "output": out.getvalue(), "stderr": err.getvalue()[:500]}


def peak_rss_kb():
    """Peak resident memory of this process since it started.

    Read from VmHWM: getrusage's ru_maxrss also counts the memory of the
    parent this process was forked from.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    request = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _on_alarm)
    run_query(WARMUP, request["timeout_s"])
    tracer = None
    if request["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    for qid, argv in enumerate(request["queries"]):
        if tracer is not None:
            tracer.begin_query(qid)
        result = run_query(argv, request["timeout_s"])
        if tracer is not None:
            tracer.count_output(result["output"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    last = {"done": True, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        last["layers"] = tracer.summary()
        last["unbound"] = tracer.unbound
    sys.stdout.write(json.dumps(last) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
