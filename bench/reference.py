"""A fixed reference computation that gauges how fast this machine runs now.

A small shared VM can change speed by 1.5x over minutes, with no steal time
to show for it, and such a phase can span several benchmark runs, so medians
of raw operation times spread across runs by more than a regression worth
catching. The benchmark therefore times this computation next to every
operation and reports each operation's time in multiples of it as well
(``wall_ref``, ``cpu_ref``): a phase slows both alike and cancels out, while
a change to duet moves only the operation. The computation mixes the kinds
of work duet does (parsing and formatting TSV text in Python, elementwise
numpy over a spots x genes block, dot products against a database with a
partial sort), its inputs are fixed, and it must never change, or
``*_ref`` values stop comparing across commits.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

MIN_PIECES = 3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20170228)
        self.text = "\n".join("\t".join(f"{v:.6g}" for v in row)
                              for row in rng.standard_normal((120, 60)))
        self.counts = rng.poisson(3.0, size=(600, 220)).astype(float)
        self.db = rng.standard_normal((1400, 32))
        self.queries = rng.standard_normal((100, 32))

    def piece(self) -> float:
        """Seconds one pass of the computation takes (about 10 ms)."""
        t0 = time.perf_counter()
        rows = [[float(v) for v in line.split("\t")] for line in self.text.split("\n")]
        "\n".join("\t".join(f"{v:.6g}" for v in row) for row in rows)
        mu = np.exp(np.log1p(self.counts).mean(axis=0))
        (self.counts * np.log(mu) - mu - np.log1p(self.counts)).sum()
        for q in self.queries:
            scores = self.db @ q
            np.argpartition(scores, -100)[-100:]
        return time.perf_counter() - t0

    def measure(self, budget_s: float) -> float:
        """Median seconds of a pass, over passes run for about budget_s."""
        times = []
        t_end = time.perf_counter() + budget_s
        while len(times) < MIN_PIECES or time.perf_counter() < t_end:
            times.append(self.piece())
        return statistics.median(times)
