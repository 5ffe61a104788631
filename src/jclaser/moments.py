"""Exact steady-state photon moments of the pumped emitter-cavity system.

With no direct cavity pumping the full steady-state problem reduces to one
three-term recurrence for the factorial moments N_a[n] = <a'^n a^n>, from
which the emitter moments and cross correlators follow in closed form.  The
recurrence is solved here as a banded linear system in the scaled variables

    M[n] = N_a[n] / (n! s^n)

where the scale ``s`` (of order the expected photon number) keeps all
entries representable: the raw moments behave like n_a^n and overflow long
before the distribution tail is resolved.  A backward continued-fraction
sweep of the moment ratios provides a second, independent route used for
cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    InternalConsistencyError,
    NoSteadyStateError,
    TruncationNotConvergedError,
    UnphysicalResultError,
)
from .params import SystemParams, inv_C_eff


def recurrence_coefficients(params: SystemParams, n: int, num=float) -> tuple:
    """Coefficients (A_n, B_n, C_n) of the moment recurrence at index n.

    The steady-state equation reads  C_n N[n-1] - B_n N[n] - A_n N[n+1] = 0.
    Requires P_a = 0.  The rates are converted with ``num`` first, so
    ``num=mpmath.mpf`` evaluates the same formulas at the working precision;
    1/C_eff is ``params.inv_C_eff`` written out for any number type.
    """
    rates = (params.g, params.gamma_a, params.gamma_sigma, params.gamma_phi, params.P_sigma, params.delta)
    g, ga, gs, gp, P, dl = (num(x) for x in rates)
    G = gs + P
    gam_t = G + gp + (2 * n - 1) * ga
    ge2 = g**2 / (1 + (2 * dl / gam_t) ** 2) if dl != 0 else g**2
    invC = ga * gam_t / (4 * ge2) if ge2 != 0 else num("inf")
    A = 2 * ga / (G + n * ga)
    B = invC + n * ga / (G + (n - 1) * ga) - 2 * P / (G + n * ga) + 1
    C = n * P / (G + (n - 1) * ga)
    return A, B, C


@dataclass
class PhotonMoments:
    """Scaled factorial moments of the cavity field up to ``n_max``.

    ``M[n] = N_a[n] / (n! scale^n)`` with ``M[0] = 1``.  Accessors recover
    the raw moments where they are representable.
    """

    params: SystemParams
    scale: float
    M: np.ndarray
    n_max: int

    @property
    def n_a(self) -> float:
        return self.M[1] * self.scale

    @property
    def N_a2(self) -> float:
        return 2.0 * self.M[2] * self.scale**2

    def N_a(self, n: int) -> float:
        return self.M[n] * math.factorial(n) * self.scale**n

    def N_sigma(self, n: int) -> float:
        """<a'^(n-1) a^(n-1) sigma' sigma>, n >= 1."""
        p = self.params
        num = p.P_sigma * self.N_a(n - 1) - p.gamma_a * self.N_a(n)
        return num / (p.Gamma_sigma + p.gamma_a * (n - 1))

    def N_as(self, n: int) -> complex:
        """Cross correlator <a'^n a^(n-1) sigma>, n >= 1."""
        p = self.params
        na_n = self.N_a(n)
        imag = p.gamma_a / (2.0 * p.g) * na_n
        denom = p.Gamma_sigma + p.gamma_phi + p.gamma_a * (2 * n - 1)
        real = -p.delta * p.gamma_a * na_n / p.g / denom
        return real + 1j * imag


def _check_steady_state(params: SystemParams) -> None:
    if params.P_a != 0.0:
        raise ValueError("moment recurrence requires P_a = 0")
    if params.gamma_a == 0.0 and params.P_sigma >= params.gamma_sigma:
        raise NoSteadyStateError(
            "gamma_a = 0 with P_sigma >= gamma_sigma: the photon number grows "
            "without bounds"
        )


def _physical_n_sigma(params: SystemParams, n_a: float) -> float:
    """Emitter population from the rate balance, once n_a is physical.

    Raises when n_a < 0 or the population leaves [0, 1]: the route has too
    few digits or too low a cutoff (gamma_a = 0.01, P_sigma = 7 gives
    n_a = -1.0168 at 40 digits, against 343.71).
    """
    n_sigma = (params.P_sigma - params.gamma_a * n_a) / params.Gamma_sigma
    if not (n_a >= 0.0 and 0.0 <= n_sigma <= 1.0):
        raise UnphysicalResultError(f"moment route gave n_a = {n_a!r}, n_sigma = {n_sigma!r}")
    return n_sigma


def _guess_scale(params: SystemParams) -> float:
    """Rough photon-number scale used to precondition the moment solve."""
    from .approximations import statistics_root  # local import, no cycle at runtime

    guesses = [1.0]
    if params.gamma_a > 0.0:
        for g2 in (1.0, 2.0):
            try:
                guesses.append(statistics_root(params, g2))
            except (ValueError, ZeroDivisionError):
                pass
    elif params.gamma_sigma > params.P_sigma:
        guesses.append(params.P_sigma / (params.gamma_sigma - params.P_sigma))
    return max(g for g in guesses if math.isfinite(g) and g > 0.0)


def _solve_fixed(params: SystemParams, n_max: int, scale: float) -> PhotonMoments:
    """Banded solve of the scaled recurrence with closure M[n_max + 1] = 0."""
    ns = np.arange(1, n_max + 1)
    A = np.empty(n_max)
    B = np.empty(n_max)
    C = np.empty(n_max)
    for i, n in enumerate(ns):
        A[i], B[i], C[i] = recurrence_coefficients(params, int(n))
    # scaled equation: (C_n/(n s)) M[n-1] - B_n M[n] - A_n (n+1) s M[n+1] = 0
    sub = C / (ns * scale)
    diag = -B
    sup = -A * (ns + 1) * scale
    ab = np.zeros((3, n_max))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = diag
    ab[2, :-1] = sub[1:]
    rhs = np.zeros(n_max)
    rhs[0] = -sub[0]  # moves the known M[0] = 1 to the right-hand side
    try:
        sol = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoSteadyStateError(f"singular moment system: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NoSteadyStateError("moment solve produced non-finite values")
    M = np.empty(n_max + 1)
    M[0] = 1.0
    M[1:] = sol
    return PhotonMoments(params=params, scale=scale, M=M, n_max=n_max)


def _log_abs_moments(mom: PhotonMoments) -> np.ndarray:
    """log(N_a[n]/n!) for the truncation-tail criterion, overflow free."""
    with np.errstate(divide="ignore"):
        logm = np.log(np.abs(mom.M))
    n = np.arange(mom.n_max + 1)
    return logm + n * math.log(mom.scale)


def solve_moments(
    params: SystemParams,
    n_max: int | None = None,
    n_max_cap: int = 200_000,
    rtol: float = 1e-9,
) -> PhotonMoments:
    """Solve the moment recurrence, growing the cutoff until converged.

    In auto mode the cutoff doubles until the mean photon number is stable to
    ``rtol`` between successive solves and the scaled tail N_a[n]/n! has
    dropped 15 decades below its maximum.  The convergence comparison uses
    the extended-precision ratio sweep: the recurrence amplifies coefficient
    roundoff by roughly e^(n_a), so plain float64 values of n_a carry noise
    that would mask the truncation error being tested.  A perfect cavity
    (gamma_a = 0, P_sigma < gamma_sigma) terminates the recurrence exactly,
    so any cutoff is exact and growth stops at the first solve.
    """
    _check_steady_state(params)
    scale = _guess_scale(params)
    if n_max is not None:
        mom = _solve_fixed(params, n_max, scale)
        _physical_n_sigma(params, mom.n_a)
        return mom

    n = max(16, int(math.ceil(3.0 * scale)) + 10)
    prev_na = None
    while n <= n_max_cap:
        mom = _solve_fixed(params, n, scale)
        if params.gamma_a == 0.0:
            break
        logm = _log_abs_moments(mom)
        tail_ok = logm[-1] < np.max(logm) + math.log(1e-15)
        na = _ratio_sweep_mp(params, n, depth=1, dps=30)[0]
        if prev_na is not None:
            if tail_ok and abs(na - prev_na) <= rtol * max(abs(na), 1e-300):
                break
        prev_na = na
        n *= 2
    else:
        raise TruncationNotConvergedError(
            f"moment solve not converged below n_max cap {n_max_cap}"
        )
    _physical_n_sigma(params, mom.n_a)
    return mom


def solve_moments_backward_ratio(params: SystemParams, n_max: int) -> float:
    """Mean photon number from a backward sweep of the ratios F[n] = N[n+1]/N[n].

    This is the recurrence in its nonlinear ratio form, evaluated as a
    continued fraction from the closure F[n_max] = 0 downward; it is an
    independent route to n_a = F[0] used to cross-check the banded solve.
    """
    _check_steady_state(params)
    F = 0.0
    for n in range(n_max, 0, -1):
        A, B, C = recurrence_coefficients(params, n)
        denom = A * F + B
        if denom == 0.0:
            raise NoSteadyStateError("vanishing denominator in ratio sweep")
        F = C / denom
    return F


def _ratio_sweep_mp(params: SystemParams, n_max: int, depth: int = 2, dps: int = 40):
    """Backward ratio sweep in extended precision; returns F[0..depth-1].

    The recurrence's sensitivity to coefficient roundoff grows like e^(n_a)
    (measured ~1e11 at n_a ~ 50), so double precision saturates around seven
    digits there.  Rebuilding the coefficients and the sweep with mpmath
    recovers the digits the tight cross-checks require at negligible cost.
    """
    from mpmath import mp, mpf

    with mp.workdps(dps):
        F = mpf(0)
        tail = []
        for n in range(n_max, 0, -1):
            A, B, C = recurrence_coefficients(params, n, mpf)
            F = C / (B + A * F)
            if n <= depth:
                tail.append(F)
        return [float(x) for x in reversed(tail)]


def precise_observables(params: SystemParams, n_max: int, dps: int = 40) -> "Observables":
    """Observables from the extended-precision ratio sweep.

    n_a = F[0] and g2 = F[1]/F[0] need only the two lowest ratios; the
    emitter population follows from the exact rate-balance identity.
    """
    _check_steady_state(params)
    f0, f1 = _ratio_sweep_mp(params, n_max, depth=2, dps=dps)
    n_a = f0
    n_sigma = _physical_n_sigma(params, n_a)
    g2 = f1 / f0 if f0 > 0.0 else 0.0
    return Observables(
        n_a=n_a, n_sigma=n_sigma, g2=g2, mandel_Q=n_a * (g2 - 1.0), g2_defined=f0 > 0.0
    )


@dataclass(frozen=True)
class Observables:
    n_a: float
    n_sigma: float
    g2: float
    mandel_Q: float
    g2_defined: bool = True


def observables_from_moments(
    params: SystemParams, moments: PhotonMoments, consistency_rtol: float = 1e-8
) -> Observables:
    """Populations and photon statistics from solved moments.

    ``g2`` is computed both from the closed-form rearrangement of the n = 1
    moment equation and directly as N_a[2]/n_a^2; the two must agree, which
    guards the solve itself.
    """
    n_a = moments.n_a
    n_sigma = _physical_n_sigma(params, n_a)
    if n_a == 0.0:
        return Observables(n_a=n_a, n_sigma=n_sigma, g2=0.0, mandel_Q=0.0, g2_defined=False)
    g2_direct = moments.N_a2 / n_a**2
    if params.gamma_a > 0.0:
        gs_tot = params.Gamma_sigma
        ga = params.gamma_a
        invC = inv_C_eff(params, 1)
        # the closed-form bracket P/(n_a G) + 2P/(G+ga) - invC - (ga+G)/G,
        # with the first and last terms combined through the rate balance:
        # P/(n_a G) - (ga+G)/G = (n_sigma - n_a)/n_a.  The raw form loses
        # ~n_a/g2-level digits to cancellation at weak pump.
        bracket = (n_sigma - n_a) / n_a + 2.0 * params.P_sigma / (gs_tot + ga) - invC
        prefactor = (gs_tot + ga) / (2.0 * ga * n_a)
        g2 = prefactor * bracket
        # roundoff floor of the (still cancellation-prone) chain
        chain = (
            (params.P_sigma + ga * n_a) / (gs_tot * n_a)
            + abs(n_sigma - n_a) / n_a
            + 2.0 * params.P_sigma / (gs_tot + ga)
            + invC
        )
        floor = 256.0 * np.finfo(float).eps * prefactor * chain
        if abs(g2 - g2_direct) > consistency_rtol * abs(g2) + floor:
            raise InternalConsistencyError(
                f"g2 routes disagree: closed form {g2!r} vs direct {g2_direct!r}"
            )
        if floor > consistency_rtol * abs(g2_direct):
            # the closed form has no digits left at this pump; the direct
            # ratio is the accurate evaluation of the same identity
            g2 = g2_direct
    else:
        g2 = g2_direct
    return Observables(n_a=n_a, n_sigma=n_sigma, g2=g2, mandel_Q=n_a * (g2 - 1.0))


# ---------------------------------------------------------------------------
# Pump-series expansion of the moment ratios (perturbative route)
# ---------------------------------------------------------------------------


def _series_inv_linear(c0: float, t_max: int) -> np.ndarray:
    """Taylor coefficients of 1/(c0 + u) up to order t_max (c0 > 0)."""
    if c0 <= 0.0:
        raise ValueError("series expansion needs a positive constant term")
    k = np.arange(t_max + 1)
    return (-1.0) ** k / c0 ** (k + 1)


def _series_mul(a: np.ndarray, b: np.ndarray, t_max: int) -> np.ndarray:
    return np.convolve(a, b)[: t_max + 1]


@dataclass
class SeriesCoefficients:
    """Taylor data of F[n] = N_a[n+1]/N_a[n] in powers of the emitter pump."""

    f: np.ndarray  # shape (t_max + 1, n_max + 1); f[t, n]
    alpha: np.ndarray  # alpha[k, n]
    beta: np.ndarray  # beta[k, n]
    t_max: int
    n_max: int
    t_reached: int

    def n_a_series(self, P_sigma: float) -> float:
        """Resummed mean photon number sum_t f_t[0] P^t."""
        powers = P_sigma ** np.arange(self.t_reached + 1)
        return float(np.dot(self.f[: self.t_reached + 1, 0], powers))


def perturbative_series(params: SystemParams, n_max: int, t_max: int) -> SeriesCoefficients:
    """Expand the ratio recurrence to order ``t_max`` in the emitter pump.

    Both sides of  F[n-1](F[n] + B_n/A_n) = C_n/A_n  are expanded around
    P_sigma = 0 and matched order by order; the resulting convolution
    recurrence determines f_t[n] from lower orders.  Needs gamma_a > 0 and
    gamma_sigma > 0 (poles of the coefficients sit at -gamma_sigma).

    The coefficients here are Taylor series in the pump, a different object
    from the values ``recurrence_coefficients`` returns at one pump, so they
    are expanded term by term below.
    """
    if params.gamma_a <= 0.0 or params.gamma_sigma <= 0.0:
        raise ValueError("pump series requires gamma_a > 0 and gamma_sigma > 0")
    ga, gs, gp, dl, g = (
        params.gamma_a,
        params.gamma_sigma,
        params.gamma_phi,
        params.delta,
        params.g,
    )
    u = np.zeros(t_max + 1)
    if t_max >= 1:
        u[1] = 1.0

    def gam(const: float) -> np.ndarray:
        out = u.copy()
        out[0] = const
        return out

    # order t at index n pulls in order t-1 at index n+1, so the working
    # range must extend t_max indices beyond the requested n_max
    n_top = n_max + t_max
    alpha = np.zeros((t_max + 1, n_top + 2))
    beta = np.zeros((t_max + 1, n_top + 2))
    for n in range(1, n_top + 2):
        inv_A = gam(gs + n * ga) / (2.0 * ga)  # 1/A_n as a polynomial in the pump
        gam_T = gam(gs + gp + (2 * n - 1) * ga)
        inv_gam_T = _series_inv_linear(gam_T[0], t_max)
        invC = ga / (4.0 * g**2) * (gam_T + 4.0 * dl**2 * inv_gam_T)
        inv_prev = _series_inv_linear(gs + (n - 1) * ga, t_max)
        inv_n = _series_inv_linear(gs + n * ga, t_max)
        B = invC + n * ga * inv_prev - 2.0 * _series_mul(u, inv_n, t_max)
        B[0] += 1.0
        alpha[:, n] = _series_mul(B, inv_A, t_max)
        C = n * _series_mul(u, inv_prev, t_max)
        beta[:, n] = _series_mul(C, inv_A, t_max)

    f = np.zeros((t_max + 1, n_top + 1))
    t_reached = t_max
    for t in range(1, t_max + 1):
        for n in range(n_top - t + 1):
            acc = beta[t, n + 1]
            for q in range(1, t):
                acc -= f[q, n] * (f[t - q, n + 1] + alpha[t - q, n + 1])
            f[t, n] = acc / alpha[0, n + 1]
        if not np.all(np.isfinite(f[t, : n_top - t + 1])):
            t_reached = t - 1
            f[t:] = 0.0
            break
    return SeriesCoefficients(
        f=f[:, : n_max + 1], alpha=alpha[:, : n_max + 1], beta=beta[:, : n_max + 1],
        t_max=t_max, n_max=n_max, t_reached=t_reached,
    )
