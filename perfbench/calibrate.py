"""Machine speed, measured around every op, to report times at a fixed speed.

A shared host changes speed by up to a factor of two in phases that last from
a fraction of a second to minutes: a fixed pure-Python loop took 2.9 ms in
one phase and 5.9 ms in the next on the reference machine, with CPU time
moving as much as wall time.  A 30-second run cannot average that away: over
ten seeds the wall-clock figures of one workload spread 0.1-0.35 (distance
between the quartiles over the median).  So the benchmark measures the speed
as it goes.  Before every op, and once at the end, it takes a sample: each
part of the workload's calibration kernel runs `REPEATS` times and its median
time is divided by the part's reference time; the sample's factor is the mean
of those ratios.  An op's factor is the median of the `NEIGHBOURS` samples
before it and after it, and its scaled time is its wall time divided by that
factor: the time it would take at the reference speed.  The kernel is the
benchmark's own code, the same on every commit, so a change to the library
moves the scaled times as it moves the wall times.

The host does not slow every kind of work alike: in one busy phase the
interpreter loop ran twice as slow while a small matrix product barely
slowed.  So each workload names the parts that do its kind of work
(workloads.WORKLOADS): the interpreter loop for `analyze` and `certify`, whose
time goes to orbit searches, solvers and basis strings, and the numpy parts
for `oracle`, whose time goes to the dense oracle.  Over eight seeds these
choices left the scaled figures spreading 0.02-0.11 where the wall-clock ones
spread 0.1-0.3.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NEIGHBOURS = 1  # samples on each side of an op that set its factor
REPEATS = 3  # runs of each part in a sample; the sample takes their median

_A = (np.arange(96 * 96).reshape(96, 96) % 7 + 1j).astype(complex)
_H = np.random.default_rng(0).standard_normal((160, 160))
_H = _H + _H.T
_M = np.ones(1 << 19)


def _python():
    acc = 0
    table = {}
    for i in range(10000):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x >> 3
        table[x & 255] = acc
    return acc


def _blas():
    for _ in range(6):
        np.dot(_A, _A)


def _eigh():
    np.linalg.eigh(_H)


def _memory():
    return (_M * 2.0).sum()


# part -> (kernel, its time in seconds on the reference machine at full speed)
PARTS = {
    "python": (_python, 1.6e-3),
    "blas": (_blas, 0.6e-3),
    "eigh": (_eigh, 2.2e-3),
    "memory": (_memory, 0.58e-3),
}


class Speedometer:
    """Samples of the machine's speed over a run, and the factor of each op.

    A factor of 1.25 means the machine ran the kernel 1.25 times slower than
    its reference; an op's scaled time is its wall time divided by it.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self.times: list[float] = []  # when each sample was taken
        self.ratios: list[list[float]] = []  # time / reference time of each part
        self.factors: list[float] = []

    def sample(self) -> None:
        ratios = []
        for kernel, reference in (PARTS[p] for p in self.parts):
            runs = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                runs.append(time.perf_counter() - t0)
            ratios.append(statistics.median(runs) / reference)
        self.times.append(time.perf_counter())
        self.ratios.append(ratios)
        self.factors.append(sum(ratios) / len(ratios))

    def factor(self, t0: float, t1: float) -> float:
        """Median factor of the `NEIGHBOURS` samples before t0 and after t1."""
        i = bisect.bisect_right(self.times, t0)
        j = bisect.bisect_left(self.times, t1)
        return statistics.median(self.factors[max(0, i - NEIGHBOURS):i] + self.factors[j:j + NEIGHBOURS])

    def summary(self) -> dict:
        q = statistics.quantiles(self.factors, n=4) if len(self.factors) > 1 else self.factors * 3
        return {"samples": len(self.factors), "factor_q1": q[0], "factor_median": statistics.median(self.factors),
                "factor_q3": q[2], "factor_min": min(self.factors), "factor_max": max(self.factors)}
