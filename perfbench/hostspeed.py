"""Host speed from a fixed kernel, to normalise timings on a shared host.

The 2-vCPU KVM guest this benchmark was defined on switches, every few
seconds, between a quiet state and a loaded one in which other tenants slow
it down.  Raw wall times of identical work then differ by up to 1.7x from
one op to the next, and by 10-25% between runs.  So the benchmark times
``kernel`` right before and right after every op and every set-up.  The
kernel is small numpy operations driven from Python, like simbound's
solvers, and none of it is simbound code, so no change to the program
moves it.

In the loaded state the kernel slows by 1.8-2.0x while simbound's ops slow
less, and by how much depends on the workload.  Op time grows as kernel
time to a power ``BETA``: about 0.7 for certify trials, whose holdout
evaluation and separator are BLAS-heavy, and for cli_chain ops, which also
parse CSV and write files; about 0.85 for solver_tiny fits, which are
Python overhead like the kernel itself.  These were measured from repeated
identical ops and from ten-run sets of each workload on the quiet and on
the loaded host.  An op timed from ``start`` to ``end`` is scaled by
(``NOMINAL_S`` / k) ** beta, where k is the mean of the kernel samples just
before ``start`` and just after ``end``.  The result reads as seconds on
that host when it is quiet.  Raw wall times are reported beside the scaled
ones.
"""

import bisect
import statistics
import time

import numpy as np

# The kernel's time on the defining host when it is quiet: the 5th
# percentile of 600 samples taken on a 2-vCPU Xeon (Sapphire Rapids) guest.
# (At 300 iterations it was 2.0 ms; 150 iterations take half as long.)
NOMINAL_S = 1.0e-3
# How op time grows with kernel time from the quiet to the loaded state.
BETA = {"certify": 0.7, "solver_tiny": 0.85, "cli_chain": 0.7}
_ITERS = 150
_REPEATS = 3
_A = np.arange(25.0).reshape(5, 5) / 25.0


def kernel():
    b = _A
    for _ in range(_ITERS):
        b = np.maximum(np.abs(b @ _A) * 0.5 - 0.1, 0.0) / (1.0 + np.linalg.norm(b))
    return b


class HostSpeed:
    """Kernel timings through a run, and the scale factor for any interval."""

    def __init__(self, beta):
        self.beta = beta
        self.times = []
        self.seconds = []

    def sample(self):
        """Time the kernel; the median of _REPEATS runs counts as one sample."""
        started = time.perf_counter()
        runs = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        self.times.append(started)
        self.seconds.append(statistics.median(runs))

    def scale(self, start, end):
        """The factor that turns a wall time from start to end into quiet-host time.

        A sample must have been taken before start and another after end.
        """
        before = self.seconds[bisect.bisect_right(self.times, start) - 1]
        after = self.seconds[bisect.bisect_left(self.times, end)]
        return (NOMINAL_S / ((before + after) / 2.0)) ** self.beta

    def slowdown(self):
        """How much slower than quiet the host was over the run (1.0 = quiet)."""
        return statistics.median(self.seconds) / NOMINAL_S
