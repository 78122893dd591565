"""The reference computation that the benchmark's time metrics are
divided by.

On a shared virtual machine the speed of the same CPU-bound work drifts
by a third from minute to minute, so op times in ms from two runs of the
same code can lie far apart.  Each run therefore also times a fixed
pure-Python computation that does not touch symsum, interleaved with the
ops, and reports op times as multiples of its mean time in that run.
Both see the same machine, so the drift cancels and a change to symsum
still shows in full.
"""

from __future__ import annotations

import time


def reference() -> int:
    """Build and walk a left-nested chain of 3000 pairs: allocation and
    pointer chasing over about a megabyte, like a symsum expression tree;
    about 1 ms on a quiet 2-vCPU Xeon."""
    node = None
    for i in range(3000):
        node = (node, (i, -i), str(i))
    odd = 0
    while node is not None:
        odd += node[1][0] & 1
        node = node[0]
    return odd


class Reference:
    """Runs `reference()` after the ops so that it takes `share` of the op
    time, spread evenly over the run, and keeps its timings."""

    def __init__(self, share: float):
        self.share = share
        self.debt = 0.0
        self.times: list[float] = []

    def after(self, op_seconds: float) -> None:
        self.debt += self.share * op_seconds
        while self.debt > 0:
            t0 = time.perf_counter()
            reference()
            elapsed = time.perf_counter() - t0
            self.times.append(elapsed)
            self.debt -= elapsed
