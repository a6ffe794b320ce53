"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the CPU's speed changes by up to ~50% from one
stretch of seconds or minutes to the next, in wall and CPU time alike, so
raw call times of the same code spread by more than any useful bound. The
timed loop runs this kernel before the first call and after every call. A
call's calibrated time is its wall time scaled by ``REFERENCE_S`` over the
mean of the two kernel times around it: the seconds it would take on a
machine where the kernel takes ``REFERENCE_S``.

The kernel mixes what the program spends its time on: small BLAS products,
interpreted Python and many small numpy calls on a few-thousand-row matrix.
It depends on no pcsaliency code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time that calibrated seconds are expressed against: about what the
# kernel takes on a 2-vCPU Intel Xeon VM in its fast phase. Any fixed value
# works; changing it rescales every calibrated time.
REFERENCE_S = 0.012
SLICES = 5

_rng = np.random.default_rng(20240521)
_SQUARE = _rng.random((256, 256))
_TALL = _rng.random((2300, 32))
_VEC = _rng.random(32)


def reference_time() -> float:
    """Median wall time of ``SLICES`` runs of the fixed reference kernel.

    The median ignores a slice that the scheduler happened to preempt.
    """
    return statistics.median(_kernel() for _ in range(SLICES))


def _kernel() -> float:
    t0 = time.perf_counter()
    for _ in range(4):
        _SQUARE @ _SQUARE
    t = 0
    for i in range(80000):
        t += i * i
    for j in range(200):
        np.maximum(_TALL @ _VEC - _TALL[:, j % 32] * 0.5, 0.0)
    return time.perf_counter() - t0
