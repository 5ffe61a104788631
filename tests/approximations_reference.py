"""The approximation ladder with the closed form only the tests read.

Re-exports ``jclaser.approximations`` and adds the exact zero-pump g2, so
that the suite reads runtime and oracle through one name (``import
approximations_reference as ap``).
"""

from __future__ import annotations

from dataclasses import replace

from jclaser.approximations import *  # noqa: F403 - the runtime names, read through this module
from jclaser.params import SystemParams, g_eff


def g2_zero_pump(params: SystemParams) -> float:
    """Exact zero-pump limit of the photon correlation g2.

    Written with the kappa_sigma terms multiplied through by gamma_a so the
    expression stays finite for a lossless cavity (where it tends to 2).
    """
    zero_pump = replace(params, P_sigma=0.0)
    ge1 = g_eff(zero_pump, 1)
    four_g2 = 4.0 * ge1 * ge1  # kappa_sigma * gamma_a
    ga, gs, gp = params.gamma_a, params.gamma_sigma, params.gamma_phi
    num = four_g2 * (ga + gs) + ga * gs * (ga + gs + gp)
    den = four_g2 * (3.0 * ga + gs) + ga * (ga + gs) * (3.0 * ga + gs + gp)
    if den == 0.0:
        return 0.0
    return 2.0 * num / den
