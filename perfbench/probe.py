"""A fixed piece of pure-Python work that gauges the speed of the host.

The benchmark's host is shared: its speed drifts by a factor of up to two
over tens of seconds, as other work comes and goes on the same cores.  The
probe runs the same work every time, big-integer products summed into a
list plus dictionary updates, much like the inner loops of the package,
but it calls nothing of the package, so no change to the package can move
it.  Timing it just before and just after a query tells how fast the host
was while that query ran (see run.py).

    python3 perfbench/probe.py     # prints the probe's median time in ms
"""

from __future__ import annotations

import time

# On an unloaded vCPU of a 2.1 GHz Intel Xeon the probe takes about this
# long; times scaled by the probe are stated at that speed.
REFERENCE_S = 0.8e-3

_A = [7 ** 150 + i * 3 ** 90 for i in range(24)]
_B = [5 ** 170 - i * 11 ** 60 for i in range(24)]


def probe() -> float:
    """Seconds taken by the fixed work."""
    t0 = time.perf_counter()
    for _ in range(3):
        out = [0] * (len(_A) + len(_B) - 1)
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                out[i + j] += a * b
        counts = {}
        for k in range(400):
            counts[k % 37] = counts.get(k % 37, 0) + k
    return time.perf_counter() - t0


if __name__ == "__main__":
    import statistics

    print(f"{1e3 * statistics.median(probe() for _ in range(200)):.4f} ms")
