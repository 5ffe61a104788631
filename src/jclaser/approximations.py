"""Closed-form approximation ladder and regime classification.

Five complementary descriptions of the pumped system: the linear (bosonic
and one-excitation) models, the semiclassical lasing solution and the
thermal solution, each a ``Populations`` pair (n_a, n_sigma), and the
cothermal interpolation of a whole pump grid, plus the pump-axis regime
classifier built on the semiclassical pump scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoPhysicalRootError
from .params import SystemParams, g_eff, kappa_sigma, recurrence_coefficients


@dataclass(frozen=True)
class Populations:
    """Cavity and emitter populations (n_a, n_sigma) of a closed form."""

    n_a: float
    n_sigma: float


def _linear_variant(params: SystemParams, variant: str) -> tuple[float, float]:
    sign = -1.0 if variant == "bosonic" else 1.0
    G = params.gamma_sigma + sign * params.P_sigma
    ga, gp, P = params.gamma_a, params.gamma_phi, params.P_sigma
    ks = kappa_sigma(params)
    if math.isinf(ks):
        denom = G + ga
        if denom == 0.0:
            return math.inf, math.inf
        return P / denom, P / denom
    denom = ks * (G + ga) + G * (G + ga + gp)
    if denom == 0.0:
        return math.inf, math.inf
    n_a = ks * P / denom
    n_sigma = (ks + ga + params.gamma_sigma + gp) * P / denom
    return n_a, n_sigma


def linear_models(params: SystemParams) -> dict[str, Populations]:
    """Both linear closed forms, bosonic and truncated_jc, at the given pump;
    a vanishing denominator gives n_a = n_sigma = inf.  A cavity pump, which
    neither form carries, raises ``ValueError``."""
    if params.P_a != 0.0:
        raise ValueError(f"linear models assume P_a = 0, got P_a = {params.P_a}")
    return {v: Populations(*_linear_variant(params, v)) for v in ("bosonic", "truncated_jc")}


def statistics_root(params: SystemParams, g2: float | np.ndarray) -> float | np.ndarray:
    """Positive n_a root of the n = 1 moment equation at a fixed g2.

    With N_a[2] = g2 n_a^2 it reads C1 - B1 n_a - A1 g2 n_a^2 = 0, with the
    coefficients of ``recurrence_coefficients(params, 1)``.  g2 = 1 gives the
    semiclassical (Poissonian) branch, g2 = 2 the thermal one.  Solved with
    the cancellation-free quadratic formula, elementwise when ``g2`` is an
    array.  At g2 = 0 with B1 <= 0 the relation has no root and the result
    is not finite.
    """
    if params.gamma_a <= 0.0:
        raise ValueError("statistics_root needs gamma_a > 0")
    return _first_moment_root(*recurrence_coefficients(params, 1), g2)


def _first_moment_root(A1, b, c, g2):
    """``statistics_root`` from its coefficients (A1, B1, C1), which may be arrays."""
    a = A1 * np.asarray(g2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        disc = np.sqrt(b * b + 4.0 * a * c)
        if np.isinf(disc).any():
            # b * b overflows from |b| ~ 1.3e154 on (gamma_phi ~ 1e155 /
            # gamma_a); hypot does not, and there it is |b| to the last bit
            disc = np.where(np.isinf(disc), np.hypot(b, 2.0 * np.sqrt(a * c)), disc)
        return np.where(b <= 0.0, (-b + disc) / (2.0 * a), 2.0 * c / (b + disc))


_WINDOW_MARGIN = 5.0  # how far "<<" reaches in the lasing validity window


def lasing_window_ok(params: SystemParams) -> bool:
    """Validity window for the lasing spectra: decays << g_eff < P << kappa."""
    ge1 = g_eff(params, 1)
    ks = kappa_sigma(params)
    small = max(params.gamma_a, params.gamma_sigma, params.gamma_phi)
    return (
        small * _WINDOW_MARGIN <= ge1
        and ge1 < params.P_sigma
        and params.P_sigma * _WINDOW_MARGIN <= ks
    )


def _pump_scales(params: SystemParams) -> tuple[float, float]:
    """Semiclassical pumps of the largest n_a and of quenching, P_at_max and
    P_max; unlike n_a they need only kappa_sigma, not Gamma_sigma > 0."""
    ks = kappa_sigma(params)
    gs, gp = params.gamma_sigma, params.gamma_phi
    return (ks - 2.0 * gs - gp) / 2.0, ks - 3.0 * gs - 2.0 * gp


def semiclassical(params: SystemParams) -> Populations:
    """Lasing-regime populations n_a = F_a (1 - 2 gamma_sigma / Gamma_sigma - F_sigma)
    and n_sigma = (1 + F_sigma) / 2, with the feeding efficiencies
    F_a = Gamma_sigma / (2 gamma_a) and F_sigma = (Gamma_sigma + gamma_phi) / kappa_sigma.
    Needs gamma_a > 0, Gamma_sigma > 0 and P_a = 0, or raises ``ValueError``."""
    if params.gamma_a <= 0.0 or params.Gamma_sigma <= 0.0:
        raise ValueError("semiclassical solution needs gamma_a > 0 and Gamma_sigma > 0")
    if params.P_a != 0.0:
        raise ValueError(f"semiclassical solution assumes P_a = 0, got P_a = {params.P_a}")
    gs_tot, ks = params.Gamma_sigma, kappa_sigma(params)
    F_sigma = (gs_tot + params.gamma_phi) / ks if ks > 0.0 else math.inf  # g_eff[1]^2 may underflow to 0
    n_a = gs_tot / (2.0 * params.gamma_a) * (1.0 - 2.0 * params.gamma_sigma / gs_tot - F_sigma)
    if n_a < 0.0:  # below threshold n_a = 0, and the rate balance gives n_sigma
        return Populations(n_a=0.0, n_sigma=params.P_sigma / gs_tot)
    return Populations(n_a=n_a, n_sigma=0.5 * (1.0 + F_sigma))


def thermal_na(params: SystemParams) -> Populations:
    """Cavity population assuming a thermal field: the g2 = 2 root of
    ``statistics_root``, with n_sigma from the rate balance; at
    gamma_a = P_a = 0 the exact (nbar_a, nbar_sigma) of the lossless cavity.
    A cavity pump, which neither form carries, raises ``ValueError``."""
    if params.P_a != 0.0:
        raise ValueError(f"thermal solution expects P_a = 0, got P_a = {params.P_a}")
    if params.gamma_a == 0.0:
        P, gs = params.P_sigma, params.gamma_sigma
        nbar_a = P / (gs - P) if gs > P else math.inf
        nbar_s = P / (gs + P) if gs + P > 0.0 else 0.0
        return Populations(n_a=nbar_a, n_sigma=nbar_s)
    if params.Gamma_sigma <= 0.0:
        raise ValueError("thermal solution needs Gamma_sigma > 0 when gamma_a > 0")
    n_a = float(statistics_root(params, 2.0))
    return Populations(n_a=n_a, n_sigma=(params.P_sigma - params.gamma_a * n_a) / params.Gamma_sigma)


# ---------------------------------------------------------------------------
# Cothermal state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CothermalState:
    """Cavity field with a coherent fraction on a thermal background.

    The algebraic branch with n_coh > n_a (negative thermal fraction) is
    admitted: it continues the ansatz into the antibunched region, where it
    tracks the exact g2 below one.  Only n_a >= 0, n_coh >= 0 and a
    nonnegative second moment (n_coh <= sqrt(2) n_a) are required, so
    g2 = 2 - (n_coh/n_a)^2 spans [0, 2].
    """

    n_a: float
    n_coh: float

    @property
    def g2(self) -> float:
        # <a'a'aa>/n_a^2 is 0/0 in the vacuum
        return 2.0 - (self.n_coh / self.n_a) ** 2 if self.n_a > 0.0 else math.nan


# g2 nodes of the cothermal root scan
_G2_GRID = np.linspace(0.0, 2.0, 65)


def _second_moment(coef: np.ndarray, g2):
    """f(g2), the n = 2 moment equation on the n = 1 curve over n_a; it falls
    along g2.  ``coef`` holds (A1, B1, C1, A2, B2, C2) along its first axis."""
    A1, b, c, A2, B2, C2 = coef
    n_a = _first_moment_root(A1, b, c, g2)
    return C2 - B2 * g2 * n_a - A2 * n_a * n_a * (9.0 * g2 - 12.0 + 4.0 * (2.0 - g2) ** 1.5)


def _moment_coefficients(params: SystemParams) -> list[float]:
    """(A1, B1, C1, A2, B2, C2): ``recurrence_coefficients`` at n = 1 and 2."""
    return [*recurrence_coefficients(params, 1), *recurrence_coefficients(params, 2)]


def cothermal_sweep(params: SystemParams, pumps) -> list[CothermalState | NoPhysicalRootError]:
    """The cothermal field (n_a, n_coh) at each pump P_sigma of ``pumps``.

    With N_a[2] = g2 n_a^2 the n = 1 moment equation is the quadratic of
    ``statistics_root``, so every admissible state lies on the curve
    n_a = statistics_root(g2), n_coh = n_a sqrt(2 - g2), g2 in [0, 2].  On
    it the n = 2 equation divided by n_a reads
    C2 - B2 g2 n_a - A2 n_a^2 (9 g2 - 12 + 4 (2 - g2)^1.5), which falls
    along g2, so it has one root: its sign change on a fixed g2 grid is
    rescanned down to adjacent floats.  Where it is still positive at g2 = 2
    the field would be superthermal, and the pump gets a ``NoPhysicalRootError``
    in place of its state; a zero pump gets the zero state.  A state is the
    root alone: no command writes its moment residual, which the tests'
    reference computes.  The rescans run
    on the brackets of all pumps together, and a pump drops out once its
    bracket stops shrinking, so each pump's result is its one-pump result.
    """
    if params.gamma_a <= 0.0 or params.P_a != 0.0:
        raise ValueError("cothermal solution needs gamma_a > 0 and P_a = 0")
    states = [replace(params, P_sigma=float(P)) for P in pumps]
    out: list = [CothermalState(n_a=0.0, n_coh=0.0)] * len(states)
    live = np.array([j for j, p in enumerate(states) if p.P_sigma != 0.0], dtype=int)
    coef = np.array([_moment_coefficients(states[j]) for j in live]).reshape(len(live), 6).T[:, :, None]
    with np.errstate(invalid="ignore", over="ignore"):
        f_g = _second_moment(coef, _G2_GRID)
    changes = (f_g[:, :-1] > 0.0) != (f_g[:, 1:] > 0.0)
    # a = A1 g2 vanishes only at g2 = 0, the one node that may have no root
    changes[:, 0] &= np.isfinite(_first_moment_root(*coef[:3], _G2_GRID[0]))[:, 0]
    found = changes.any(axis=1)
    for j in live[~found]:
        out[j] = NoPhysicalRootError("the n = 2 moment equation has no root with g2 <= 2 (superthermal field)")
    i = np.argmax(changes[found], axis=1)
    rows, coef = live[found], coef[:, found]
    g2 = np.empty(len(rows))
    lo, hi = _G2_GRID[i], _G2_GRID[i + 1]
    todo = np.arange(len(rows))
    # each pass rescans every open bracket on _G2_GRID.size nodes and keeps its
    # first sign change, down to adjacent floats: n_coh = n_a sqrt(2 - g2) is
    # steep near g2 = 2; at huge pumps f overflows as in the first scan
    with np.errstate(invalid="ignore", over="ignore"):
        while len(todo):
            g = np.linspace(lo, hi, _G2_GRID.size, axis=-1)
            f_g = _second_moment(coef[:, todo], g)
            i = np.argmax((f_g[:, :-1] > 0.0) != (f_g[:, 1:] > 0.0), axis=1)
            k = np.arange(len(todo))
            g_lo, g_hi = g[k, i], g[k, i + 1]
            done = (g_lo == lo) & (g_hi == hi)
            g2[todo[done]] = np.where(np.abs(f_g[k, i]) <= np.abs(f_g[k, i + 1]), lo, hi)[done]
            todo, lo, hi = todo[~done], g_lo[~done], g_hi[~done]
    n_a = _first_moment_root(*coef[:3, :, 0], g2)
    for j, x, na in zip(rows, g2, n_a.tolist()):
        out[j] = CothermalState(n_a=na, n_coh=na * math.sqrt(2.0 - x))
    return out


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


def regime_boundaries(params: SystemParams) -> dict[str, float]:
    """Pump values separating the five regimes (monotonized where needed).

    The Quantum/Lasing edge at g_eff[1] is a documented heuristic; the upper
    edges come from the semiclassical pump scales.
    """
    gs = params.gamma_sigma
    ge1 = g_eff(params, 1)
    if params.gamma_a > 0.0:
        p_peak, p_quench = _pump_scales(params)
    else:
        p_peak = p_quench = math.inf
    b1 = gs
    b2 = max(b1, ge1)
    b3 = max(b2, p_peak)
    b4 = max(b3, p_quench)
    return {
        "linear_quantum": b1,
        "quantum_lasing": b2,
        "lasing_quenching": b3,
        "quenching_thermal": b4,
    }


def classify_regime(params: SystemParams) -> str:
    """Assign the pump to one of the five operation regimes; zero pump is Linear."""
    b = regime_boundaries(params)
    P = params.P_sigma
    if P == 0.0 or P < b["linear_quantum"]:
        return "Linear"
    if P <= b["quantum_lasing"]:
        return "Quantum"
    if P < b["lasing_quenching"]:
        return "Lasing"
    if P < b["quenching_thermal"]:
        return "Quenching"
    return "Thermal"
