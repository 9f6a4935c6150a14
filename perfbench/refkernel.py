"""Reference kernels that probe the host's current speed.

Run as a child process that never imports ravinegd, so nothing the program
under test sets (BLAS threads, GC, environment) can change the reference.
Protocol on stdin/stdout, one line each way: the parent writes ``run``,
the child times ``CHUNKS[kernel]`` short runs of the kernel and replies
with the fastest, in seconds.  The host's speed flips between states
within a fraction of a second, so the fastest chunk tracks the speed of
its fast state, the same state the fastest samples of the workload ran in.

Kernels, one per kind of bottleneck:

- ``interp``: loops of tiny numpy operations, bound by the interpreter and
  numpy call overhead like the epoch engine and the checks.
- ``matvec``: a dense mat-vec pair over a 160 MB matrix (larger than the
  L3 cache), bound by memory bandwidth like the dense sensing evaluation.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# The fastest of 6 matvec chunks varied about twice as much from one timing
# to the next as the fastest of 16, and so did sensing times normalized by
# it; 16 interp chunks would add a third to a small_compare rep.
CHUNKS = {"interp": 6, "matvec": 16}
INTERP_ITERS = 1000
MATVEC_SHAPE = (2000, 10_000)


def interp_kernel() -> float:
    x = np.array([0.3, -0.7])
    acc = 0.0
    for _ in range(INTERP_ITERS):
        g = 2.0 * x
        acc += float(g @ g)
        x = x - 1e-4 * g
        if not np.all(np.isfinite(x)):
            break
    return acc


class MatvecKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.mat = rng.standard_normal(MATVEC_SHAPE)
        self.vec = rng.standard_normal(MATVEC_SHAPE[1])

    def __call__(self) -> float:
        y = self.mat @ self.vec
        return float(self.mat.T @ y @ self.vec)


def make_kernel(name: str):
    if name == "interp":
        return interp_kernel
    if name == "matvec":
        return MatvecKernel()
    raise ValueError(f"unknown reference kernel {name!r}")


def main(argv) -> int:
    kernel = make_kernel(argv[1])
    kernel()  # warm caches and page in the operands before the first timing
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            break
        times = []
        for _ in range(CHUNKS[argv[1]]):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        print(repr(min(times)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
