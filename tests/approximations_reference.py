"""The approximation ladder with the closed forms only the tests read.

Re-exports ``jclaser.approximations`` and adds the exact zero-pump g2, the
low-pump slope C1 of both linear models and the pumps where the bosonic
model diverges, so that the suite reads runtime and oracle through one name
(``import approximations_reference as ap``).
"""

from __future__ import annotations

import math
from dataclasses import replace

from jclaser.approximations import *  # noqa: F403 - the runtime names, read through this module
from jclaser.params import SystemParams, g_eff, kappa_sigma


def linear_slope_C1(params: SystemParams) -> float:
    """Low-pump slope of n_a(P_sigma), common to both linear variants."""
    zero_pump = replace(params, P_sigma=0.0)
    ks = kappa_sigma(zero_pump)
    gs, ga, gp = params.gamma_sigma, params.gamma_a, params.gamma_phi
    if math.isinf(ks):  # gamma_a = 0
        return 1.0 / gs if gs > 0.0 else math.inf
    denom = ks * (gs + ga) + gs * (gs + ga + gp)
    return ks / denom if denom != 0.0 else math.inf


def bosonic_divergence_pumps(params: SystemParams) -> tuple[float, float]:
    """Pump values where the bosonic-model denominator vanishes.

    Exact roots of x^2 + x(kappa_sigma + gamma_a + gamma_phi) + kappa_sigma
    gamma_a = 0 in x = gamma_sigma - P_sigma; for good cavities these sit at
    roughly gamma_sigma and kappa_sigma + gamma_sigma + gamma_phi.
    """
    ks = kappa_sigma(params)
    if math.isinf(ks):
        return params.gamma_sigma, math.inf
    b = ks + params.gamma_a + params.gamma_phi
    c = ks * params.gamma_a
    disc = math.sqrt(max(b * b - 4.0 * c, 0.0))
    x1 = (-b - disc) / 2.0
    x2 = 2.0 * c / (-b - disc) if (-b - disc) != 0.0 else 0.0
    roots = sorted(params.gamma_sigma - x for x in (x1, x2))
    return roots[0], roots[1]


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
