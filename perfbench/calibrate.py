"""Host speed reference: a fixed kernel timed between the phases of a run.

A shared host does not run a core at one speed. Other tenants on the same
physical core or socket, and the clock changes they cause, make the same
instructions take a quarter to a half more CPU time for minutes at a time,
so whole runs of the same code read slow or fast together. The kernel below
is benchmark code, the same in every run and untouched by any change to the
program, and mixes what the program spends its time on: interpreter loops,
small matrix products, 64x64 FFTs and per-pixel arithmetic on a 384x256
frame. The benchmark times it between the phases of every round and scales
the round's times by the kernel's reference time over its median time in
that round, so a figure reads as if the host ran at its reference speed.
A change to the program moves its figures and leaves the kernel's alone.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

# The kernel's median CPU time on the reference machine, over 16 runs of the
# benchmark (README.md, "Clock and host speed"). It only sets the scale of the
# reported figures: another value multiplies every run's times by one constant.
REFERENCE_S = 0.0317


class Kernel:
    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.small = rng.random((300, 9))
        self.weights = rng.random((9, 16))
        self.images = rng.random((8, 64, 64))
        self.frame = rng.random((256, 384, 3)) + 0.1

    def run(self) -> float:
        """About 8 ms of each kind of work on the reference machine."""
        acc = 0.0
        for i in range(140_000):  # interpreter: a training loop's bookkeeping
            acc += (i * 7) % 13
        for _ in range(1200):  # small dense products, as in EMLP
            acc += float(np.maximum(self.small @ self.weights, 0.0).sum())
        for _ in range(18):  # batched 64x64 FFTs, as in ECCC
            acc += float(np.abs(scipy.fft.irfft2(scipy.fft.rfft2(self.images) ** 2, s=(64, 64))).sum())
        for _ in range(3):  # per-pixel work on a full frame, as in DEF and histograms
            chroma = self.frame / (self.frame.sum(axis=2, keepdims=True) + 1e-6)
            acc += float(np.log(chroma[..., 1] / chroma[..., 0]).sum())
        return acc

    def time(self) -> float:
        """CPU seconds of one run of the kernel."""
        t0 = time.process_time()
        self.run()
        return time.process_time() - t0
