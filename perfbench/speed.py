"""Machine-speed calibration: times are reported at a fixed reference speed.

On a shared VM the speed of the same code drifts by 20-30% over minutes
(other tenants, CPU frequency), far more than the bound a run-to-run
comparison can allow.  The benchmark therefore times a fixed kernel
right before every operation and right after the last one, and scales
each operation's wall time by how fast the kernel ran around it::

    scaled_s = wall_s * REFERENCE_S / mean(kernel before, kernel after)

The kernel is the two kinds of work the program spends its time on, but
none of the program's code: scipy's SuperLU factorization of a fixed 2D
Laplacian, and a pure-Python loop that builds a dict of tuples.  A change
to the program moves ``scaled_s``; a change in machine speed mostly does
not.  Measured on back-to-back quick designs (shared 2-vCPU VM): one
design's wall time correlates with the factorization's (r = 0.72 over 17
repeats of one SA seed); the spread of four-design means fell from 24%
(wall) to 6% (scaled) in a noisy period and from 8.7% to 5.6% in a calm
one; the spread of ten-design means over four minutes was 11% (wall) and
3.6% (scaled).  A single reading is itself noisy, so scaling pays only
over many operations, and the run must hold about ten of them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

#: Side of the factorized grid: a 14 400-unknown 5-point Laplacian.
KERNEL_SIDE = 120
#: Entries of the Python loop's dict.
KERNEL_ITEMS = 50_000
#: Runs of each half per reading; a reading is the sum of their medians.
KERNEL_REPEATS = 5
#: [unit: s] A reading's median on the machine the baseline was measured
#: on (shared 2-vCPU Firecracker VM); scaled times are seconds at that
#: speed.
REFERENCE_S = 0.072

_MATRIX = None


def _matrix():
    global _MATRIX
    if _MATRIX is None:
        side = KERNEL_SIDE
        eye = sp.identity(side)
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
        _MATRIX = (sp.kron(eye, line) + sp.kron(line, eye) + 1e-3 * sp.identity(side**2)).tocsc()
    return _MATRIX


def _python_loop() -> None:
    table = {}
    for i in range(KERNEL_ITEMS):
        table[i] = (i, str(i))


def _median_time(fn) -> float:
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_seconds() -> float:
    """One reading: the factorization's median time plus the loop's."""
    matrix = _matrix()
    return _median_time(lambda: sla.splu(matrix)) + _median_time(_python_loop)


def scaled(wall_s: float, *readings: float) -> float:
    """``wall_s`` at the reference speed, given the kernel readings around it."""
    return wall_s * REFERENCE_S / float(np.mean(readings))
