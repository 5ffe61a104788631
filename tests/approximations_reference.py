"""The approximation ladder with the closed forms only the tests read.

Re-exports ``jclaser.approximations`` and adds the exact zero-pump g2, the
low-pump slope C1 of both linear models, the pumps where the bosonic model
diverges, the one-pump cothermal root with its thermal part, factorial
moments and moment residual, and the Poissonian and cothermal photon
distributions that the tests feed to the spectral engines, so that
the suite reads runtime and oracle through one name
(``import approximations_reference as ap``).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from jclaser.approximations import *  # noqa: F403 - the runtime names, read through this module
from jclaser.approximations import CothermalState, cothermal_sweep
from jclaser.errors import NoPhysicalRootError
from jclaser.params import SystemParams, g_eff, kappa_sigma, recurrence_coefficients

_LOG_FLOOR = math.log(1e-300)


def cothermal(params: SystemParams) -> CothermalState:
    """The one-pump case of ``cothermal_sweep``; raises its ``NoPhysicalRootError``."""
    (state,) = cothermal_sweep(params, [params.P_sigma])
    if isinstance(state, NoPhysicalRootError):
        raise state
    return state


def n_th(state: CothermalState) -> float:
    """The thermal part n_a - n_coh of ``state``, negative on the antibunched branch."""
    return state.n_a - state.n_coh


def moment(state: CothermalState, n: int) -> float:
    """Factorial moment N_a[n] = n! n_th^n L_n(-n_coh / n_th).

    Expanded into the polynomial n! sum_k C(n,k) n_coh^k n_th^(n-k) / k!,
    which stays valid on the analytic n_th < 0 branch.
    """
    acc = 0.0
    for k in range(n + 1):
        acc += (
            math.comb(n, k)
            * state.n_coh**k
            / math.factorial(k)
            * n_th(state) ** (n - k)
        )
    return math.factorial(n) * acc


def _moment_residual(params: SystemParams, state: CothermalState, n: int) -> float:
    """Relative residual of C_n N[n-1] - B_n N[n] - A_n N[n+1] = 0 at ``state``."""
    A, B, C = recurrence_coefficients(params, n)
    terms = (C * moment(state, n - 1), -B * moment(state, n), -A * moment(state, n + 1))
    return abs(sum(terms)) / (sum(map(abs, terms)) + 1e-300)


def cothermal_residual(params: SystemParams, state: CothermalState) -> float:
    """The root's relative residual of the n = 1, 2 moment equations at ``params``."""
    return max(_moment_residual(params, state, n) for n in (1, 2))


def poissonian_statistics(n_a: float, n_cut: int | None = None) -> np.ndarray:
    """Poissonian T[n], the lasing-regime field statistics."""
    if n_cut is None:
        n_cut = int(n_a + 12.0 * math.sqrt(max(n_a, 1.0))) + 25
    n = np.arange(n_cut + 1)
    if n_a <= 0.0:
        return np.where(n == 0, 1.0, 0.0)
    logT = n * math.log(n_a) - n_a - np.cumsum(np.concatenate([[0.0], np.log(n[1:])]))
    return np.exp(np.clip(logT, _LOG_FLOOR, 0.0))


def cothermal_distribution(state: CothermalState, n_cut: int | None = None, tail: float = 1e-12) -> np.ndarray:
    """T[n] of the displaced thermal field ``state``, evaluated stably in log space.

    Only defined as a distribution for n_th >= 0; the analytic n_th < 0
    branch falls back to the Poissonian at n_a.  Without ``n_cut`` the
    ladder runs past the mode until T falls ``tail`` below its peak.  The
    rungs past the last one above ``tail`` of the peak are cut.
    """
    nth, nc = n_th(state), max(state.n_coh, 0.0)
    if nth < 1e-12:  # Poissonian limit (and the analytic n_th < 0 branch)
        return poissonian_statistics(max(state.n_a, nc), n_cut)
    x = nc / (nth * (1.0 + nth))
    log_base = math.log(nth / (1.0 + nth))
    logT = [-nc / (1.0 + nth) - math.log(1.0 + nth)]
    top = logT[0]
    # ratio recurrence for L_{n+1}(-x)/L_n(-x); positive, no cancellation
    r = 1.0 + x  # L_1/L_0
    n = 0
    while True:
        step = log_base + math.log(r)
        if n_cut is None:
            # past the mode and ``tail`` below the peak
            if step < 0.0 and logT[-1] < top + math.log(tail):
                break
        elif n >= max(n_cut, 8):
            break
        logT.append(logT[-1] + step)
        top = max(top, logT[-1])
        n += 1
        r = ((2 * n + 1 + x) - n / r) / (n + 1)
    T = np.exp(np.clip(logT, _LOG_FLOOR, 50.0))
    keep = np.nonzero(T > tail * T.max())[0]
    return T[: keep[-1] + 1] if len(keep) else T[:1]


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
