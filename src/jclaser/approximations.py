"""Closed-form approximation ladder and regime classification.

Five complementary descriptions of the pumped system: the linear (bosonic
and one-excitation) models, the semiclassical lasing solution, the thermal
solution, and the cothermal interpolation, plus the pump-axis regime
classifier built on their characteristic scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoPhysicalRootError
from .moments import recurrence_coefficients
from .params import SystemParams, g_eff, inv_C_eff, kappa_sigma


@dataclass(frozen=True)
class LinearModelResult:
    variant: str  # "bosonic" or "truncated_jc"
    n_a: float
    n_sigma: float
    C1: float
    P_minus: float | None = None
    P_plus: float | None = None
    diverged: bool = False


def linear_slope_C1(params: SystemParams) -> float:
    """Low-pump slope of n_a(P_sigma), common to both linear variants."""
    zero_pump = replace(params, P_sigma=0.0)
    ks = kappa_sigma(zero_pump)
    gs, ga, gp = params.gamma_sigma, params.gamma_a, params.gamma_phi
    if math.isinf(ks):  # gamma_a = 0
        return 1.0 / gs if gs > 0.0 else math.inf
    denom = ks * (gs + ga) + gs * (gs + ga + gp)
    return ks / denom if denom != 0.0 else math.inf


def _linear_variant(params: SystemParams, variant: str) -> tuple[float, float, bool]:
    sign = -1.0 if variant == "bosonic" else 1.0
    G = params.gamma_sigma + sign * params.P_sigma
    ga, gp, P = params.gamma_a, params.gamma_phi, params.P_sigma
    ks = kappa_sigma(params)
    if math.isinf(ks):
        denom = G + ga
        if denom == 0.0:
            return math.inf, math.inf, True
        return P / denom, P / denom, False
    denom = ks * (G + ga) + G * (G + ga + gp)
    if denom == 0.0:
        return math.inf, math.inf, True
    n_a = ks * P / denom
    n_sigma = (ks + ga + params.gamma_sigma + gp) * P / denom
    return n_a, n_sigma, False


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


def linear_models(params: SystemParams) -> dict[str, LinearModelResult]:
    """Both linear closed forms, evaluated at the given pump."""
    C1 = linear_slope_C1(params)
    P_minus, P_plus = bosonic_divergence_pumps(params)
    out = {}
    for variant in ("bosonic", "truncated_jc"):
        n_a, n_sigma, diverged = _linear_variant(params, variant)
        out[variant] = LinearModelResult(
            variant=variant,
            n_a=n_a,
            n_sigma=n_sigma,
            C1=C1,
            P_minus=P_minus if variant == "bosonic" else None,
            P_plus=P_plus if variant == "bosonic" else None,
            diverged=diverged,
        )
    return out


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


def statistics_root(params: SystemParams, g2: float) -> float:
    """Positive n_a root of the exact g2(n_a) relation at a fixed g2.

    g2 = 1 gives the semiclassical (Poissonian) branch, g2 = 2 the thermal
    one.  Solved with the cancellation-free quadratic formula.
    """
    if params.gamma_a <= 0.0:
        raise ValueError("statistics_root needs gamma_a > 0")
    gs_tot = params.Gamma_sigma
    ga, P = params.gamma_a, params.P_sigma
    a = 2.0 * g2 * ga / (gs_tot + ga)
    b = inv_C_eff(params, 1) + (ga + gs_tot) / gs_tot - 2.0 * P / (gs_tot + ga)
    c = P / gs_tot
    disc = math.sqrt(b * b + 4.0 * a * c)
    if b <= 0.0:
        return (-b + disc) / (2.0 * a)
    return 2.0 * c / (b + disc)


def poissonian_ansatz_root(params: SystemParams) -> float:
    """Semiclassical n_a from the n = 1 moment equation with N_a[n] = n_a^n.

    Independent route to the same quadratic as ``statistics_root(params, 1)``.
    """
    A, B, C = recurrence_coefficients(params, 1)
    if A == 0.0:
        return C / B
    disc = math.sqrt(B * B + 4.0 * A * C)
    if B <= 0.0:
        return (-B + disc) / (2.0 * A)
    return 2.0 * C / (B + disc)


@dataclass(frozen=True)
class SemiclassicalResult:
    n_a: float
    n_sigma: float
    F_a: float
    F_sigma: float
    C2: float
    max_n_a: float
    P_at_max: float
    P_max: float
    clamped: bool = False
    in_validity_window: bool = True


def lasing_window_ok(params: SystemParams, margin: float = 5.0) -> bool:
    """Validity window for the lasing spectra: decays << g_eff < P << kappa."""
    ge1 = g_eff(params, 1)
    ks = kappa_sigma(params)
    small = max(params.gamma_a, params.gamma_sigma, params.gamma_phi)
    return (
        small * margin <= ge1
        and ge1 < params.P_sigma
        and params.P_sigma * margin <= ks
    )


def semiclassical(params: SystemParams) -> SemiclassicalResult:
    """Lasing-regime populations, feeding efficiencies and pump scales."""
    if params.gamma_a <= 0.0 or params.Gamma_sigma <= 0.0:
        raise ValueError("semiclassical solution needs gamma_a > 0 and Gamma_sigma > 0")
    ks = kappa_sigma(params)
    gs_tot = params.Gamma_sigma
    ga, gs, gp = params.gamma_a, params.gamma_sigma, params.gamma_phi
    F_a = gs_tot / (2.0 * ga)
    F_sigma = (gs_tot + gp) / ks
    n_a = F_a * (1.0 - 2.0 * gs / gs_tot - F_sigma)
    clamped = n_a < 0.0
    return SemiclassicalResult(
        n_a=max(n_a, 0.0),
        n_sigma=0.5 * (1.0 + F_sigma),
        F_a=F_a,
        F_sigma=F_sigma,
        C2=1.0 / (2.0 * ga),
        max_n_a=ks / (8.0 * ga) * (1.0 - (4.0 * gs + 2.0 * gp) / ks),
        P_at_max=ks / 2.0 * (1.0 - (2.0 * gs + gp) / ks),
        P_max=ks - 3.0 * gs - 2.0 * gp,
        clamped=clamped,
        in_validity_window=lasing_window_ok(params),
    )


@dataclass(frozen=True)
class ThermalResult:
    n_a: float
    n_sigma: float
    exact_limit: tuple[float, float] | None = None  # (nbar_a, nbar_sigma) at gamma_a = P_a = 0


def thermal_na(params: SystemParams) -> ThermalResult:
    """Cavity population assuming a thermal field (g2 = 2), literal form."""
    if params.gamma_a == 0.0:
        if params.P_a != 0.0:
            raise ValueError("thermal limit form expects P_a = 0")
        P, gs = params.P_sigma, params.gamma_sigma
        nbar_a = P / (gs - P) if gs > P else math.inf
        nbar_s = P / (gs + P) if gs + P > 0.0 else 0.0
        return ThermalResult(n_a=nbar_a, n_sigma=nbar_s, exact_limit=(nbar_a, nbar_s))
    ks = kappa_sigma(params)
    gs_tot = params.Gamma_sigma
    ga, gs, gp, P = params.gamma_a, params.gamma_sigma, params.gamma_phi, params.P_sigma
    bracket = 1.0 + (gs_tot + ga + gp) / ks - 2.0 * P / (gs_tot + ga) + ga / gs_tot
    root = math.sqrt(16.0 * P * ga / gs_tot / (gs_tot + ga) + bracket**2)
    n_a = (
        (gs_tot + ga) * root
        - gs_tot * ((gs_tot + gp) / ks + 2.0 * gs / gs_tot - 1.0)
        - ga * ((2.0 * gs_tot + gp) / ks + 2.0)
        - ga**2 / gs_tot * (gs_tot / ks + 1.0)
    ) / (8.0 * ga)
    n_sigma = (P - ga * n_a) / gs_tot
    return ThermalResult(n_a=n_a, n_sigma=n_sigma)


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
    residual: float = 0.0

    @property
    def n_th(self) -> float:
        return self.n_a - self.n_coh

    @property
    def g2(self) -> float:
        if self.n_a == 0.0:
            return 2.0
        return 2.0 - (self.n_coh / self.n_a) ** 2

    def moment(self, n: int) -> float:
        """Factorial moment N_a[n] = n! n_th^n L_n(-n_coh / n_th).

        Expanded into the polynomial n! sum_k C(n,k) n_coh^k n_th^(n-k) / k!,
        which stays valid on the analytic n_th < 0 branch.
        """
        acc = 0.0
        for k in range(n + 1):
            acc += (
                math.comb(n, k)
                * self.n_coh**k
                / math.factorial(k)
                * self.n_th ** (n - k)
            )
        return math.factorial(n) * acc

    def photon_distribution(self, n_cut: int | None = None, tail: float = 1e-12) -> np.ndarray:
        """T[n] of the displaced thermal field, evaluated stably in log space.

        Only defined as a distribution for n_th >= 0; the analytic n_th < 0
        branch falls back to the Poissonian at n_a.  Without ``n_cut`` the
        ladder runs past the mode until T falls ``tail`` below its peak.
        """
        from .spectra import poissonian_statistics

        nth, nc = self.n_th, max(self.n_coh, 0.0)
        if nth < 1e-12:  # Poissonian limit (and the analytic n_th < 0 branch)
            return poissonian_statistics(max(self.n_a, nc), n_cut)
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
        return self._trim(T, tail)

    @staticmethod
    def _trim(T: np.ndarray, tail: float) -> np.ndarray:
        keep = np.nonzero(T > tail * T.max())[0]
        return T[: keep[-1] + 1] if len(keep) else T[:1]


_LOG_FLOOR = math.log(1e-300)


def _cothermal_equations(params: SystemParams, x: float, y: float):
    """Residuals of the n = 1, 2 moment equations and their magnitude scales."""
    m1 = x
    m2 = 2.0 * x * x - y * y
    m3 = 6.0 * x**3 - 9.0 * x * y * y + 4.0 * y**3
    A1, B1, C1 = recurrence_coefficients(params, 1)
    A2, B2, C2 = recurrence_coefficients(params, 2)
    r1 = C1 * 1.0 - B1 * m1 - A1 * m2
    r2 = C2 * m1 - B2 * m2 - A2 * m3
    s1 = abs(C1) + abs(B1 * m1) + abs(A1 * m2) + 1e-300
    s2 = abs(C2 * m1) + abs(B2 * m2) + abs(A2 * m3) + 1e-300
    return np.array([r1, r2]), np.array([s1, s2])


def _cothermal_relative_residual(params: SystemParams, x: float, y: float) -> float:
    r, s = _cothermal_equations(params, x, y)
    return float(np.max(np.abs(r) / s))


def _cothermal_jacobian(params: SystemParams, x: float, y: float) -> np.ndarray:
    A1, B1, _ = recurrence_coefficients(params, 1)
    A2, B2, C2 = recurrence_coefficients(params, 2)
    dm2x, dm2y = 4.0 * x, -2.0 * y
    dm3x, dm3y = 18.0 * x * x - 9.0 * y * y, -18.0 * x * y + 12.0 * y * y
    return np.array(
        [
            [-B1 - A1 * dm2x, -A1 * dm2y],
            [C2 - B2 * dm2x - A2 * dm3x, -B2 * dm2y - A2 * dm3y],
        ]
    )


_SQRT2 = math.sqrt(2.0)


def _newton_polish(
    params: SystemParams, x: float, y: float, steps: int = 100
) -> tuple[float, float, float]:
    """Damped Newton with projection onto n_a >= 0, 0 <= n_coh <= sqrt(2) n_a."""
    for _ in range(steps):
        r, s = _cothermal_equations(params, x, y)
        rel = float(np.max(np.abs(r) / s))
        if rel < 1e-14:
            break
        try:
            step = np.linalg.solve(_cothermal_jacobian(params, x, y), -r)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        improved = False
        for _ in range(50):
            xn = max(x + lam * step[0], 0.0)
            yn = min(max(y + lam * step[1], 0.0), _SQRT2 * xn)
            if _cothermal_relative_residual(params, xn, yn) < rel:
                x, y = xn, yn
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    return x, y, _cothermal_relative_residual(params, x, y)


def _third_moment_score(params: SystemParams, state: CothermalState) -> float:
    """Relative residual of the n = 3 moment equation; root quality metric."""
    A3, B3, C3 = recurrence_coefficients(params, 3)
    m2, m3, m4 = (state.moment(k) for k in (2, 3, 4))
    r = C3 * m2 - B3 * m3 - A3 * m4
    s = abs(C3 * m2) + abs(B3 * m3) + abs(A3 * m4) + 1e-300
    return abs(r) / s


def cothermal(params: SystemParams) -> CothermalState:
    """Solve the coupled cothermal equations for (n_a, n_coh).

    Damped Newton from three seeds spanning the branches: the semiclassical
    point (coherent, n_coh = n_a), the thermal point (n_coh = 0) and the
    antibunched edge (n_coh = sqrt(2) n_a).  Among converged roots in the
    admissible wedge the one that best satisfies the next (n = 3) moment
    equation wins; a scan of the reduced one-dimensional problem is the
    fallback when no seed converges.
    """
    if params.gamma_a <= 0.0 or params.P_a != 0.0:
        raise ValueError("cothermal solution needs gamma_a > 0 and P_a = 0")
    if params.P_sigma == 0.0:
        return CothermalState(n_a=0.0, n_coh=0.0, residual=0.0)
    sc_na = semiclassical(params).n_a
    th_na = thermal_na(params).n_a
    lin_na = statistics_root(params, 2.0)
    seeds = [(th_na, 0.0), (lin_na, 0.0), (lin_na, 1.3 * lin_na)]
    if sc_na > 0.0:
        seeds.append((sc_na, sc_na))

    roots: list[CothermalState] = []
    for x0, y0 in seeds:
        if not (x0 > 0.0 and math.isfinite(x0)):
            continue
        x, y, res = _newton_polish(params, x0, max(y0, 0.0))
        if res <= 1e-10 and x > 0.0:
            roots.append(CothermalState(n_a=x, n_coh=y, residual=res))
    if not roots:
        # reduce via the first equation: y^2 = 2x^2 - m2(x); scan the second
        A1, B1, C1 = recurrence_coefficients(params, 1)
        x_hi = 3.0 * max(sc_na, th_na, lin_na, 1.0)
        xs = np.geomspace(max(x_hi * 1e-12, 1e-15), x_hi, 6001)
        prev = None
        for x in xs:
            m2 = (C1 - B1 * x) / A1 if A1 != 0.0 else math.nan
            y2 = 2.0 * x * x - m2
            if not (0.0 <= y2 <= 2.0 * x * x):
                prev = None
                continue
            y = math.sqrt(y2)
            r2 = _cothermal_equations(params, x, y)[0][1]
            if prev is not None and prev[1] * r2 <= 0.0:
                xr, yr, res = _newton_polish(params, (prev[0] + x) / 2.0, y)
                if res <= 1e-9:
                    roots.append(CothermalState(n_a=xr, n_coh=yr, residual=res))
                    break
            prev = (x, r2)
    if not roots:
        raise NoPhysicalRootError("no cothermal root with n_a, n_coh >= 0 found")
    # deduplicate and pick the root most consistent with the next moment equation
    uniq: list[CothermalState] = []
    for r in roots:
        if not any(
            abs(r.n_a - u.n_a) <= 1e-6 * max(u.n_a, 1.0)
            and abs(r.n_coh - u.n_coh) <= 1e-6 * max(u.n_a, 1.0)
            for u in uniq
        ):
            uniq.append(r)
    return min(uniq, key=lambda r: _third_moment_score(params, r))


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

_REGIME_ORDER = ("Linear", "Quantum", "Lasing", "Quenching", "Thermal")


@dataclass(frozen=True)
class RegimeLabel:
    label: str
    boundaries: dict = field(default_factory=dict)
    lasing_window_ok: bool = False


def regime_boundaries(params: SystemParams) -> dict[str, float]:
    """Pump values separating the five regimes (monotonized where needed).

    The Quantum/Lasing edge at g_eff[1] is a documented heuristic; the upper
    edges come from the semiclassical pump scales.
    """
    gs = params.gamma_sigma
    ge1 = g_eff(replace(params, P_sigma=max(params.P_sigma, 0.0)), 1)
    if params.gamma_a > 0.0:
        sc = semiclassical(params)
        p_peak, p_quench = sc.P_at_max, sc.P_max
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


def classify_regime(params: SystemParams) -> RegimeLabel:
    """Assign the pump to one of the five operation regimes."""
    b = regime_boundaries(params)
    P = params.P_sigma
    if P < b["linear_quantum"]:
        label = "Linear"
    elif P <= b["quantum_lasing"]:
        label = "Quantum"
    elif P < b["lasing_quenching"]:
        label = "Lasing"
    elif P < b["quenching_thermal"]:
        label = "Quenching"
    else:
        label = "Thermal"
    return RegimeLabel(label=label, boundaries=b, lasing_window_ok=lasing_window_ok(params))
