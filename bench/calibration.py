"""CPU-speed calibration.

On the shared 2-vCPU machine this benchmark was sized on, the same code runs
up to 2.4 times as slow for seconds to minutes at a time, depending on what
else the host runs; every part of a pass slows together. Every timing the
benchmark reports is therefore scaled to a reference speed: a fixed kernel
owned by the benchmark (it never calls the toolkit) is timed between
operations and, from a SIGALRM handler, every `PERIOD_S` of wall time inside
them, so that long operations are sampled as densely as short ones (except
for `learn_batch`, whose kernel starts threads and whose operations are
short: it is sampled between operations only). The handler skips its turn
while the program runs threads of its own (`learn`'s thread pool): the
kernel would compete with them for the interpreter lock and read slow. Each sampling point gives a speed, `ref_s / median(its
samples)`; an operation's time at the reference speed is the sum of its
stretches between sampling points, each multiplied by the mean speed at the
stretch's two ends. The time spent sampling is left out of every operation.
Each workload uses the kernel closest to the work that dominates it, because
contention slows interpreter-bound, memory-bound and LAPACK-bound code by
different factors. The raw wall times are printed alongside.
"""

from __future__ import annotations

import csv
import io
import signal
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.2  # wall time between two sampling points during a pass
BURST = 3  # samples per sampling point, so one interrupted sample does not decide


def _small_rk4(rng):
    """RK4 steps of a 37-state linear system and CSV rows of 28 floats, the
    shape of the simulator's loop and the trajectory writer on the paper's
    scenario."""
    m = rng.standard_normal((37, 37)) / 6 - 3 * np.eye(37)
    y0, rows, dt = rng.standard_normal(37), rng.standard_normal((30, 28)), 1e-3

    def run():
        y = y0
        for _ in range(80):
            k1 = m @ y
            k2 = m @ (y + 0.5 * dt * k1)
            k3 = m @ (y + 0.5 * dt * k2)
            k4 = m @ (y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            np.abs(y).max()
        writer = csv.writer(io.StringIO())
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])
    return run


def _wide_matvec(rng):
    """Matvecs with a 1402-state dense matrix and float formatting."""
    m, y0, vals = rng.standard_normal((1402, 1402)) / 40, rng.standard_normal(1402), rng.standard_normal(2000)

    def run():
        y = y0
        for _ in range(4):
            y = m @ y
        ",".join(f"{v:.17g}" for v in vals)
    return run


def _pooled_lyapunov(rng):
    """Kronecker-vectorized Lyapunov solves and spectra of orders 5-10, once
    in sequence and once one order per task of a fresh 6-thread pool, as a
    `learn` call validates and designs per agent and then runs policy
    iteration per agent in a pool that uses both vCPUs where LAPACK releases
    the interpreter lock. On `learn_batch` passes this tracked the speed
    better than either half alone."""
    mats = []
    for n in range(5, 11):
        a = rng.standard_normal((n, n))
        mats.append(a - (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(n))

    def one(a):
        eye = np.eye(a.shape[0])
        k = np.kron(eye, a.T) + np.kron(a.T, eye)
        np.linalg.solve(k, -eye.flatten())
        np.linalg.eigvals(a)

    def run():
        for a in mats:
            one(a)
        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(one, mats))
    return run


# kernel name -> (kernel factory, reference time of one sample in seconds,
# whether the SIGALRM handler may run it). A kernel that starts threads is
# sampled between operations only: the signal can arrive while the main
# thread holds a lock that starting a thread needs.
KERNELS = {
    "small_rk4": (_small_rk4, 0.004, True),
    "wide_matvec": (_wide_matvec, 0.005, True),
    "pooled_lyapunov": (_pooled_lyapunov, 0.005, False),
}


class Calibration:
    def __init__(self, kernel: str):
        build, self.ref_s, self._in_handler = KERNELS[kernel]
        self._run = build(np.random.default_rng(0))
        self.points: list[tuple[float, float, float]] = []  # start, end, speed
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a signal that arrives during a sampling point
            return
        self._busy = True
        start = time.perf_counter()
        times = []
        for _ in range(BURST):
            t = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t)
        self.points.append((start, time.perf_counter(), self.ref_s / statistics.median(times)))
        self._busy = False

    def _tick(self, *_):
        if threading.active_count() == 1:
            self.sample()

    @contextmanager
    def sampling(self):
        """Take samples every PERIOD_S until the block ends, unless other
        threads are running or the kernel may not run in a signal handler."""
        if not self._in_handler:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, a: float, b: float) -> tuple[float, float]:
        """(wall time, time at the reference speed) of the interval [a, b],
        sampling left out. Needs a sampling point before `a` and after `b`."""
        wall = ref = 0.0
        for (_, prev_end, prev_speed), (start, _, speed) in zip(self.points, self.points[1:]):
            stretch = min(b, start) - max(a, prev_end)
            if stretch > 0:
                wall += stretch
                ref += stretch * (prev_speed + speed) / 2
        return wall, ref
