"""The machine's speed while ops run, sampled from inside the worker.

On a shared host the speed at which this process runs Python and small NumPy
calls drifts: on the 2-vCPU host the benchmark was calibrated on, the same op
takes 1.4 to 2 times longer for stretches of seconds to more than a minute,
and no estimator over a 30 s run (best of passes, medians) removes a stretch
that covers the run.  A ``Speedometer`` runs a fixed reference kernel every
``TICK_S`` seconds from a SIGALRM handler, so it samples the speed during long
ops too, and an op's latency is rescaled to the speed at which one
repetition of the kernel takes ``REF_US``.

The kernel is one step of the Gaussian ascent's shape (a k x n quadratic
form, its Cholesky factor and a solve against A, at k = 2, n = 4) and uses no
code of the package, so no change to the package moves it.  Ops made of such
small NumPy calls in a Python loop slow down as the kernel does
(``certify_sweep``, ``verify_battery``); ops that spend their time in large
vectorised arrays slow down less (``flow_scan``), hence the per-workload
exponent ``run.SPEED_EXPONENT``.  On the calibration host, over ten runs
per workload whose kernel speed differed by up to 1.6x, the rescaled
``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms`` spread 1.6 to 4.8 % (IQR over
median), where the same metrics in wall time spread 13 to 46 %.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_S = 0.02
#: an op's speed is the mean of the ticks inside it, or of this many ticks
#: nearest to it when fewer fall inside
NEAREST = 5
#: one repetition of the kernel at the fast speed of the calibration host, in
#: microseconds; it only sets the scale of rescaled latencies, not their
#: ratios between runs
REF_US = 16.5
#: share of the slowest and of the fastest ticks left out of an op's mean
TRIM = 0.1

_A = np.array([[0.6, -0.8, 0.28, 0.96], [0.8, 0.6, 0.96, -0.28]])
_W = np.array([0.3, 0.2, 0.4, 0.1])


def kernel(reps: int = 20) -> float:
    """The reference work, ``reps`` times a quadratic form, its factor and a
    solve; returns the median seconds of one repetition.  The median leaves
    out the first repetitions, which pay for the caches the interrupted op
    left behind rather than for the machine's speed."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        Q = (_A * _W) @ _A.T
        np.linalg.cholesky(Q)
        np.einsum("ij,ij->j", _A, np.linalg.solve(Q, _A))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def trimmed_mean(values, trim: float = TRIM) -> float:
    values = sorted(values)
    cut = int(trim * len(values))
    kept = values[cut:len(values) - cut] or values
    return sum(kept) / len(kept)


def slowdown_of(rep_s: float) -> float:
    """Slowdown of one repetition of the kernel against ``REF_US``."""
    return 1e6 * rep_s / REF_US


def slowdown_now(samples: int = 50) -> float:
    """The slowdown now, from the median of ``samples`` kernel runs."""
    return slowdown_of(statistics.median(kernel() for _ in range(samples)))


class Speedometer:
    """Times ``kernel`` every ``TICK_S`` s while the ``with`` block runs.

    The handler runs in the main thread between bytecodes, so it pauses the
    op it interrupts; ``paused`` gives that time back."""

    def __init__(self):
        #: (start, duration, one repetition of the kernel) in s
        self.ticks: list[tuple[float, float, float]] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        rep = kernel()
        self.ticks.append((start, time.perf_counter() - start, rep))

    def paused(self, start: float, end: float) -> float:
        """Seconds the handler took from ``start`` to ``end``."""
        return sum(d for s, d, _ in self.ticks if start <= s < end)

    def slowdown(self, start: float, end: float) -> float:
        """Kernel time during [start, end] over ``REF_US``: 1 at the reference speed."""
        near = [r for s, _, r in self.ticks if start <= s < end]
        if len(near) < NEAREST:
            by_distance = sorted(self.ticks, key=lambda t: max(start - t[0], t[0] - end))
            near = [r for _, _, r in by_distance[:NEAREST]]
        if not near:
            raise RuntimeError("no speed sample near an op; is SIGALRM blocked?")
        return slowdown_of(trimmed_mean(near))
