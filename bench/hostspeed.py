"""Host speed probe: a fixed kernel timed next to the measured work.

The benchmark runs on shared hosts whose other tenants slow a process down
by up to 2x, in bursts of a second and in spells of minutes, so a raw time
says as much about the neighbours as about the program.  Such a slowdown
stretches this kernel about as much as the work timed next to it, so
``normalise`` turns a raw time into the seconds the work would take on a
host where the kernel takes ``REF_KERNEL_S``.

The kernel does the two kinds of work the program spends its time on:
multi-precision arithmetic in pure Python (mpmath, as in the moment sweeps,
with the interpreter overhead of the many small calls elsewhere) and
numpy work on arrays of a few megabytes (as in the exact engine).  A kernel
of only one kind tracks the other kind's slowdowns less well.  The kernel
calls nothing of the program, so no change to the program changes its
speed.
"""

import time

import mpmath
import numpy as np

MP_STEPS = 1_500
_ARRAY = np.random.default_rng(0).standard_normal(500_000)
# about the fastest of 400 runs of kernel_time() on a 2-vCPU Xeon (Sapphire Rapids) KVM guest, CPython 3.11
REF_KERNEL_S = 0.017


def kernel_time() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    with mpmath.workdps(40):
        x = mpmath.mpf(1)
        for i in range(MP_STEPS):
            x = x * mpmath.mpf(1.0000001) + mpmath.mpf(i) / 7
    np.sort(_ARRAY)
    return time.perf_counter() - start


def normalise(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` of work timed between two kernel runs, at the reference host speed."""
    return seconds * REF_KERNEL_S * 2.0 / (kernel_before + kernel_after)
