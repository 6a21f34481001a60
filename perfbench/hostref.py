"""Reference work timed next to every operation and set-up, to factor out host speed.

A 2-vCPU Intel Xeon virtual machine shared with other tenants changes speed
by up to a third over windows of 5 to 20 s. No time
is stolen from the process: its CPU time grows with its wall time, so the
code simply runs slower while a neighbour is busy. A fixed NumPy kernel,
FFTs of a 64 x 512 block (the package's default STFT frame length), is
timed right before and right after each operation, and slows with it. An
operation's wall time divided by the mean of those two reference times is
its cost in reference units ("ref"). In one recording of back-to-back
operations, this cut the spread of the mean cost over 10 s windows from
24% to 6% on long_mpdr and from 18% to 6% on short_scored. In a calmer
recording it changed little. An FFT-only kernel tracked both workloads
better than kernels with interpreted small-array work or large streaming
arrays. The kernel does not touch audiozoom, so no change to the package
moves the reference.

Set-up time is scaled by a second reference, a pure-Python loop, because
set-up is mostly interpreter work: starting Python, imports and input
generation. In 10 minutes of back-to-back long_mpdr set-ups (250 of them),
with each divided by the reference time measured right before and right
after it, the medians of five consecutive set-ups spread by 7.5% (quartile
distance over median) with this loop, by 9% with the FFT kernel, and by
20% in plain wall-clock seconds. The host switched between a fast and a
slow speed several times in those minutes.
"""

from __future__ import annotations

import time

import numpy as np


class HostReference:
    def __init__(self):
        self._frames = np.random.default_rng(0).standard_normal((64, 512))

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(6):
            total += float(np.abs(np.fft.rfft(self._frames, axis=1)).sum())
        return total

    def measure(self, repeats: int = 3) -> float:
        """Seconds taken by the fastest of `repeats` runs of the kernel.

        One unmeasured run first, and the best of a few, discard runs slowed
        by the caches and allocator state the operation before left behind.
        """
        self._kernel()
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        return best


def interpreter_reference(repeats: int = 3) -> float:
    """Seconds taken by the fastest of `repeats` runs of a pure-Python loop."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best
