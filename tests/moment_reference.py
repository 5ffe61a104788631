"""High-precision moment-route reference for the exact engine's tests.

The extended-precision ratio sweep needs about n_a/ln 10 + 20 digits, and
below some multiple of n_a its cutoff settles on a stable wrong value
(negative at gamma_a = 0.01, P = 7 up to n_max 444, a physical but wrong
0.135 at 888).  So the digits grow with the cutoff, n_max/(4 ln 10) + 40,
and the cutoff doubles until two successive sweeps are physical, agree to
``rtol`` and carried at least n_a/ln 10 + 40 digits.
"""

from __future__ import annotations

import math

from jclaser import moments
from jclaser.errors import UnphysicalResultError

LN10 = math.log(10.0)


def moment_reference(params, rtol: float = 1e-12, n_cap: int = 1 << 14) -> moments.Observables:
    n, prev = 64, None
    while n <= n_cap:
        dps = int(n / (4 * LN10)) + 40
        try:
            obs = moments.precise_observables(params, n, dps=dps)
        except UnphysicalResultError:
            obs = None
        if (
            obs is not None
            and prev is not None
            and abs(obs.n_a - prev.n_a) <= rtol * obs.n_a
            and abs(obs.g2 - prev.g2) <= rtol * obs.g2
            and dps >= obs.n_a / LN10 + 40
        ):
            return obs
        prev = obs
        n *= 2
    raise RuntimeError(f"moment reference not converged below n_max {n_cap} for {params}")
