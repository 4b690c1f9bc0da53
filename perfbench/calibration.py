"""Fixed reference work that tracks how fast the host runs at the moment.

On a shared host the same ksctl command can take up to twice as long in one
minute as in the next, because of load the benchmark cannot see.  The
benchmark therefore times this kernel after every command, for a tenth of the
command's own time, and reports times in *reference seconds*: wall time
multiplied by ``REFERENCE_S / median(sample())`` over the same run.  A change
to ksctl moves the command times and not this kernel; a busier host slows
both, and the ratio cancels most of it.  Wall times are printed alongside.

The kernel mixes the kinds of work ksctl does: an interpreted Python loop,
small sparse solves built from scratch, a sparse LU factor of a 2D Laplacian,
numpy vector arithmetic and ``logsumexp``.  It must never change: another
kernel is another unit.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve  # bound before any tracer patches
from scipy.special import logsumexp

# about one sample's wall time on a quiet host, so reference and wall
# seconds read alike there
REFERENCE_S = 0.05
REPS = 4

_N1 = 400
_TRIDIAG = sp.diags([-np.ones(_N1 - 1), 2.2 * np.ones(_N1), -np.ones(_N1 - 1)],
                    [-1, 0, 1], format="csc")
_ONES = np.ones(_N1)
_N2 = 33
_LAP = (sp.kronsum(_TRIDIAG[:_N2, :_N2], _TRIDIAG[:_N2, :_N2])
        + sp.eye(_N2 * _N2)).tocsc()
_VEC = np.linspace(0.0, 1.0, 100_000)
_LOGS = np.linspace(-50.0, 0.0, 10_000)


def _once() -> float:
    acc = 0.0
    for j in range(20_000):
        acc += j * 0.5
    for _ in range(10):
        acc += float(spsolve(_TRIDIAG, _ONES)[0])
    lu = splu(_LAP)
    y = np.ones(_N2 * _N2)
    for _ in range(20):
        y = lu.solve(y)
    v = _VEC
    for _ in range(10):
        v = np.sqrt(v * v + 1.0) - 0.5
    for _ in range(20):
        acc += float(logsumexp(_LOGS))
    return acc + float(y[0]) + float(v[-1])


def sample() -> float:
    """Wall time of ``REPS`` runs of the kernel."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        _once()
    return time.perf_counter() - t0
