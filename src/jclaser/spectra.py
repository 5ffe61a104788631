"""Analytic spectra of the incoherently pumped system.

Valid deep in strong coupling, where the photon dynamics is slow against the
emitter and coupling dynamics: the steady density matrix follows from the
photon statistics T[n] alone, and each ladder rung contributes four lines at
the inner/outer Rabi frequencies, solved rung by rung from 4x4 blocks.  The
photon statistics is pluggable (exact, Poissonian, or thermal and cothermal
from ``approximations.CothermalState``).

Frequencies are measured from the cavity; the emitter sits at -delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotResolvableError
from .exact import FockSpace, SteadyState
from .lineshape import (
    Decomposition,
    SpectralLine,
    SpectrumResult,
    decompose,
    evaluate_lines,
    lines_from_eigenpairs,
)
from .params import SystemParams, kappa_a, kappa_sigma

_TAIL = 1e-12  # rungs with both statistics weights below this (relative) are dropped
_LINE_FLOOR = 1e-14  # rung lines with |L| + |K| below this are dropped


def poissonian_statistics(n_a: float, n_cut: int | None = None) -> np.ndarray:
    """Poissonian T[n], the lasing-regime field statistics."""
    if n_cut is None:
        n_cut = int(n_a + 12.0 * math.sqrt(max(n_a, 1.0))) + 25
    n = np.arange(n_cut + 1)
    if n_a <= 0.0:
        return np.where(n == 0, 1.0, 0.0)
    logT = n * math.log(n_a) - n_a - np.cumsum(np.concatenate([[0.0], np.log(n[1:])]))
    return np.exp(np.clip(logT, math.log(1e-300), 0.0))


# ---------------------------------------------------------------------------
# Density-matrix slices from the photon statistics
# ---------------------------------------------------------------------------


def _rung_slices(
    params: SystemParams, n: np.ndarray, Tn: np.ndarray, Tn1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p0[n+1], p1[n] and q_i[n+1] of rung n from T[n] and T[n+1].

    Vectorised over the rung index, which may be fractional (the single-rung
    substitution reads it at n = n_a with unit statistics).
    """
    if params.P_a != 0.0:
        raise ValueError("slice reconstruction assumes P_a = 0")
    G = params.Gamma_sigma
    if G == 0.0:
        raise ValueError("slice reconstruction needs gamma_sigma + P_sigma > 0")
    ka = kappa_a(params)
    gs, P, g = params.gamma_sigma, params.P_sigma, params.g
    denom = 2.0 * ka * (n + 1) + G
    common = ka * (n + 1) * (P / G * Tn + gs / G * Tn1)
    p0_n1 = (common + gs * Tn1) / denom
    p1_n = (common + P * Tn) / denom
    qi_n1 = -ka * np.sqrt(n + 1.0) / (2.0 * g) * (P * Tn - gs * Tn1) / denom
    return p0_n1, p1_n, qi_n1


def density_slices_from_statistics(params: SystemParams, T: np.ndarray) -> SteadyState:
    """Populations and coherences per rung from the photon statistics.

    Returns the steady-state record of the exact engine on the ladder of T,
    with ``herm_defect = 0``; ``q_i[0] = 0`` by construction and ``p0[0]``
    closes the distribution as T[0] - p1[0].  Its ``photon_distribution``
    equals T only for a lossless cavity.
    """
    T = np.asarray(T, dtype=float)
    N = len(T) - 1
    p0, p1, q_i = np.zeros((3, N + 1))
    p0[1:], p1[:-1], q_i[1:] = _rung_slices(params, np.arange(N), T[:-1], T[1:])
    p0[0] = T[0] - p1[0]
    return SteadyState(
        params=params, space=FockSpace(N), p0=p0, p1=p1, q_r=_tilt(params) * q_i, q_i=q_i
    )


# ---------------------------------------------------------------------------
# Rabi frequencies and rung lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RabiFrequencies:
    n: float
    inner: complex
    outer: complex


def rabi_frequencies(params: SystemParams, n: float) -> RabiFrequencies:
    """Inner/outer half Rabi frequencies of rung ``n`` (branch Re >= 0)."""
    decoh = (params.Gamma_sigma - params.gamma_phi) / 4.0
    root_n, root_n1 = np.sqrt(float(n)), np.sqrt(n + 1.0)
    inner = np.sqrt((params.g * (root_n1 - root_n)) ** 2 - decoh**2 + 0j)
    outer = np.sqrt((params.g * (root_n1 + root_n)) ** 2 - decoh**2 + 0j)
    return RabiFrequencies(n=n, inner=complex(inner), outer=complex(outer))


def linear_rabi(params: SystemParams) -> complex:
    """R0, the rung-0 (vacuum) Rabi frequency under pumping."""
    return rabi_frequencies(params, 0.0).outer


def _tilt(params: SystemParams) -> float:
    """q_r / q_i = 2 delta / (Gamma_sigma + gamma_phi)."""
    width = params.Gamma_sigma + params.gamma_phi
    return 2.0 * params.delta / width if width > 0.0 else 0.0


def rung_decomposition(
    params: SystemParams,
    T: np.ndarray,
    channel: str,
    rungs: np.ndarray | None = None,
) -> Decomposition:
    """Eigen-decompose the per-rung correlator blocks and project them.

    Each rung n couples (S0[n+1], S1[n], Q[n], V[n+1]) as du/dtau = -M u + A,
    so the stacked blocks go to ``lineshape.decompose`` as G = -M with the
    inhomogeneity A, whose stationary part carries the elastic weight.  The
    result has one block per rung.  ``rungs`` may be fractional (the
    single-rung semiclassical substitution); T is read at their integer part,
    and at 0 for the rung below a rung in (0, 1).
    """
    T = np.asarray(T, dtype=float)
    if rungs is None:
        keep = (T[:-1] >= _TAIL * T.max()) | (T[1:] >= _TAIL * T.max())
        rungs = np.nonzero(keep)[0].astype(float)
    n = np.asarray(rungs, dtype=float)
    N = len(n)
    g, G = params.g, params.Gamma_sigma
    gs, P = params.gamma_sigma, params.P_sigma
    half = (G + params.gamma_phi) / 2.0
    sqn, sqn1 = np.sqrt(n), np.sqrt(n + 1.0)
    tilt = _tilt(params)
    xi_p, xi_m = tilt + 1j, tilt - 1j
    ni = n.astype(int)
    T_n, T_n1 = T[ni], T[ni + 1]
    p0_n1, p1_n, qi_n1 = _rung_slices(params, n, T_n, T_n1)
    qi_n = np.where(n > 0.0, _rung_slices(params, n - 1.0, T[np.maximum(ni - 1, 0)], T_n)[2], 0.0)  # q_i[0] = 0

    M = np.zeros((N, 4, 4), dtype=complex)
    M[:, 0, 0] = G
    M[:, 0, 2] = 1j * g * sqn1
    M[:, 0, 3] = -1j * g * sqn
    M[:, 1, 1] = G
    M[:, 1, 2] = -1j * g * sqn
    M[:, 1, 3] = 1j * g * sqn1
    M[:, 2, 0] = 1j * g * sqn1
    M[:, 2, 1] = -1j * g * sqn
    M[:, 2, 2] = half - 1j * params.delta
    M[:, 3, 0] = -1j * g * sqn
    M[:, 3, 1] = 1j * g * sqn1
    M[:, 3, 3] = half + 1j * params.delta

    A = np.zeros((N, 4), dtype=complex)
    u0 = np.zeros((N, 4), dtype=complex)
    read = np.zeros((N, 4), dtype=complex)
    if channel == "emitter":
        A[:, 0] = gs * xi_p * qi_n1
        A[:, 1] = P * xi_p * qi_n
        u0[:, 0] = xi_p * qi_n1
        u0[:, 2] = p1_n
        read[:, 2] = 1.0
    elif channel == "cavity":
        A[:, 0] = gs * sqn1 * T_n1
        A[:, 1] = P * sqn * T_n
        u0[:, 0] = sqn1 * p0_n1
        u0[:, 1] = sqn * p1_n
        u0[:, 2] = xi_m * sqn1 * qi_n1
        u0[:, 3] = xi_p * sqn * qi_n1
        read[:, 0] = sqn1
        read[:, 1] = sqn
    else:
        raise ValueError(f"unknown channel {channel!r}")

    return decompose(-M, u0, read, A)


def approx_spectrum(
    params: SystemParams,
    T: np.ndarray,
    channel: str,
    omega: np.ndarray,
) -> SpectrumResult:
    """Line-sum spectrum over all populated rungs plus the separated delta.

    Weights are normalized by the channel population, so the incoherent part
    integrates to 1 - Re(E)/n_c with E the elastic component.
    """
    dec = rung_decomposition(params, T, channel)
    meta = {"validity_window": _window_ok(params), "rungs": len(dec.n_c)}
    return _rung_spectrum(dec, channel, omega, "approx", meta)


def _rung_spectrum(
    dec: Decomposition, channel: str, omega: np.ndarray, method: str, meta: dict
) -> SpectrumResult:
    """Lines of all rung blocks, normalized by their summed population."""
    n_c = float(np.sum(dec.n_c))
    lines = lines_from_eigenpairs(dec.lams, dec.weights / n_c, _LINE_FLOOR)
    return SpectrumResult(
        channel=channel,
        omega=np.asarray(omega, dtype=float),
        values=evaluate_lines(lines, omega),
        elastic_weight=float(np.sum(dec.elastic).real / n_c),
        lines=lines,
        method=method,
        meta={"n_c": n_c, **meta},
    )


def _window_ok(params: SystemParams) -> bool:
    from .approximations import lasing_window_ok

    return lasing_window_ok(params)


# ---------------------------------------------------------------------------
# Labeled per-rung coefficients and the closed-form special case
# ---------------------------------------------------------------------------


@dataclass
class CorrelatorCoefficients:
    """Inner/outer line data of one rung, labeled against the Rabi targets."""

    n: float
    C_inner: complex
    C_inner_mirror: complex
    C_outer: complex
    C_outer_mirror: complex
    omega_inner: float
    omega_outer: float
    gamma_inner: float
    gamma_outer: float
    R_inner: complex
    R_outer: complex


def correlator_coefficients(
    params: SystemParams,
    T: np.ndarray,
    n: int | float,
    channel: str,
) -> CorrelatorCoefficients:
    """Match the rung's four eigen-lines to the +-R_inner/outer pattern.

    Weights are normalized by the full channel population (n_sigma or n_a of
    the slices), so they are the per-rung contributions entering the total
    line sum.
    """
    dec = rung_decomposition(params, T, channel, rungs=np.array([n]))
    sl = density_slices_from_statistics(params, T)
    n_c = sl.n_sigma if channel == "emitter" else sl.n_a
    rf = rabi_frequencies(params, n)
    mean = (3.0 * params.Gamma_sigma + params.gamma_phi) / 4.0
    targets = {
        "inner": mean + 1j * rf.inner,
        "inner_mirror": mean - 1j * rf.inner,
        "outer": mean + 1j * rf.outer,
        "outer_mirror": mean - 1j * rf.outer,
    }
    lams = -dec.lams[0]  # eigenvalues of the decay matrix M, as the targets
    coeffs = dec.weights[0] / n_c
    assigned: dict[str, complex] = {}
    free = np.ones(4, dtype=bool)
    for name, tgt in targets.items():
        i = int(np.argmin(np.where(free, np.abs(lams - tgt), np.inf)))
        free[i] = False
        assigned[name] = coeffs[i]
    return CorrelatorCoefficients(
        n=float(n),
        C_inner=assigned["inner"],
        C_inner_mirror=assigned["inner_mirror"],
        C_outer=assigned["outer"],
        C_outer_mirror=assigned["outer_mirror"],
        omega_inner=float(rf.inner.real),
        omega_outer=float(rf.outer.real),
        gamma_inner=float(2.0 * mean - 2.0 * rf.inner.imag),
        gamma_outer=float(2.0 * mean - 2.0 * rf.outer.imag),
        R_inner=rf.inner,
        R_outer=rf.outer,
    )


def emitter_coefficients_closed_form(
    params: SystemParams, T: np.ndarray, n: int
) -> tuple[complex, complex]:
    """(C_inner, C_outer) from the closed form valid at resonance with
    gamma_sigma = gamma_phi = 0, emitter channel; cross-checks the 4x4 route."""
    if params.delta != 0.0 or params.gamma_sigma != 0.0 or params.gamma_phi != 0.0:
        raise ValueError("closed form holds for delta = gamma_sigma = gamma_phi = 0")
    g, P = params.g, params.P_sigma
    rf = rabi_frequencies(params, n)
    n_sigma = density_slices_from_statistics(params, T).n_sigma
    Tn = T[n] if n < len(T) else 0.0
    Tn_1 = T[n - 1] if 1 <= n <= len(T) else 0.0
    out = []
    for R, upper in ((rf.inner, True), (rf.outer, False)):
        s = 1.0 if upper else -1.0
        sq = math.sqrt(n * (n + 1.0))
        alpha = ((P / 2.0) ** 2 + g**2 * (1 + n)) / (P**2 + 8.0 * g**2 * (1 + n)) + (
            1j * P / (4.0 * R)
        ) * ((P / 2.0) ** 2 - g**2 * (1 + n - s * 2.0 * sq)) / (
            P**2 + 8.0 * g**2 * (1 + n)
        )
        # the (4 + 3iP/R) bracket is 4(1 + 3iP/(4R)); checked against an
        # extended-precision evaluation of the 4x4 block projection
        beta = (
            s
            * g**2
            * P**2
            * (4.0 + 3j * P / R)
            * (2.0 * g**2 * (sq + s * n) + P**2 * (sq - s * n))
            / (
                4.0
                * (8.0 * g**2 * n + P**2)
                * (4.0 * g**4 + 4.0 * g**2 * P**2 * (1 + 2 * n) + P**4)
            )
        )
        out.append(alpha / n_sigma * Tn + beta / n_sigma * Tn_1)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Elastic scattering weights (closed form)
# ---------------------------------------------------------------------------


def elastic_weight(params: SystemParams, T: np.ndarray, channel: str) -> float:
    """Re E^c of the elastic scattering component, series over the rungs."""
    T = np.asarray(T, dtype=float)
    G = params.Gamma_sigma
    ka = kappa_a(params)
    gs, P, g = params.gamma_sigma, params.P_sigma, params.g
    width = G + params.gamma_phi
    tilt2 = (2.0 * params.delta / width) ** 2 if width > 0.0 else 0.0
    N = len(T) - 1
    n = np.arange(N + 1, dtype=float)
    D = ka**2 * (1.0 + tilt2) + 4.0 * G**2 + 4.0 * G * ka * (2.0 * n + 1.0)
    if channel == "emitter":
        q_i = density_slices_from_statistics(params, T).q_i
        qi_n1 = np.concatenate([q_i[1:], [0.0]])
        num = gs * (ka + 2.0 * G) * np.sqrt(n + 1.0) * qi_n1 + P * (
            ka - 2.0 * G
        ) * np.sqrt(n) * q_i
        return float(4.0 * g / width * np.sum(num / D))
    if channel == "cavity":
        Tn1 = np.concatenate([T[1:], [0.0]])
        num = gs * (ka * (4.0 * n + 1.0) + 2.0 * G) * (n + 1.0) * Tn1 + P * (
            ka * (4.0 * n + 3.0) + 2.0 * G
        ) * n * T
        return float(np.sum(2.0 * num / D))
    raise ValueError(f"unknown channel {channel!r}")


# ---------------------------------------------------------------------------
# Semiclassical closed forms (deep lasing)
# ---------------------------------------------------------------------------


def incoherent_mollow_splitting(params: SystemParams) -> complex:
    """Pump-driven Mollow half splitting (closes at both low and high pump)."""
    G = params.Gamma_sigma
    arg = (2.0 * params.P_sigma - G) * kappa_sigma(params) / 2.0 - (
        (G + params.gamma_phi) / 4.0
    ) ** 2
    return complex(np.sqrt(arg + 0j))


def lasing_linewidth(params: SystemParams) -> float:
    """Cavity line narrowing estimate 2 g^2 gamma_a / P_sigma^2."""
    return 2.0 * params.g**2 * params.gamma_a / params.P_sigma**2


def approx_spectrum_single_rung(
    params: SystemParams, n_value: float, channel: str, omega: np.ndarray
) -> SpectrumResult:
    """Continuous-rung substitution n -> n_a of the rung machinery.

    In deep lasing the Poissonian statistics is sharply peaked, so the rung
    sum collapses onto the mean rung with unit statistical weight.
    """
    n = float(n_value)
    T = np.broadcast_to(1.0, (int(n) + 2,))  # a view: n may be huge
    dec = rung_decomposition(params, T, channel, rungs=np.array([n]))
    return _rung_spectrum(dec, channel, omega, "semiclassical", {"n_value": float(n_value)})


def semiclassical_mollow(
    params: SystemParams, omega: np.ndarray, channel: str = "emitter"
) -> SpectrumResult:
    """Closed-form deep-lasing spectrum.

    Emitter at resonance: delta weight, central Lorentzian of FWHM
    Gamma_sigma + gamma_phi, and side bands at +-Re(R_outer) with FWHM
    (3 Gamma_sigma + gamma_phi)/2.  Cavity: quasi-elastic line of estimated
    width 2 g^2 gamma_a / P_sigma^2 (rasterized at that finite width, weight
    counted as elastic).  Off resonance the single-rung substitution
    n = n_a is evaluated instead.
    """
    omega = np.asarray(omega, dtype=float)
    if channel == "cavity":
        gl = lasing_linewidth(params)
        line = SpectralLine(omega=0.0, gamma=gl, L=1.0, K=0.0)
        return SpectrumResult(
            channel=channel,
            omega=omega,
            values=evaluate_lines([line], omega),
            elastic_weight=1.0,
            lines=[line],
            method="semiclassical",
            meta={"gamma_L": gl},
        )
    if params.delta != 0.0:
        from .approximations import semiclassical

        res = approx_spectrum_single_rung(params, semiclassical(params).n_a, channel, omega)
        res.meta["R_outer"] = incoherent_mollow_splitting(params)
        return res

    G, f = params.Gamma_sigma, params.gamma_phi
    k = kappa_sigma(params)
    P = params.P_sigma
    delta_w = 2.0 * P / (G + f + k) - G / k
    half = (G + f) / 2.0
    central = (1.0 / (2.0 * math.pi)) * half / (half**2 + omega**2)
    w2 = omega**2
    denom = (G + f + k) * (
        (G - 2.0 * P) ** 2 * k**2
        + ((3.0 * G + f) ** 2 + 4.0 * (G - 2.0 * P) * k) * w2
        + 4.0 * w2**2
    )
    numer = (
        -4.0 * P**2 * k * (3.0 * G + f + k)
        + 2.0 * P * G * (3.0 * G**2 + 4.0 * G * (f + 2.0 * k) + (f + k) * (f + 3.0 * k))
        + 4.0 * P * k * w2
        - (G + f + k) * (G**2 * (3.0 * G + f + 2.0 * k) + (G - f) * w2)
    )
    R_O = incoherent_mollow_splitting(params)
    return SpectrumResult(
        channel=channel,
        omega=omega,
        values=central + numer / denom / math.pi,
        elastic_weight=float(delta_w),
        lines=[],
        method="semiclassical",
        meta={
            "R_outer": R_O,
            "side_splitting": float(R_O.real),
            "side_fwhm": (3.0 * G + f) / 2.0,
            "central_fwhm": G + f,
            "negative_delta": delta_w < 0.0,
        },
    )


# ---------------------------------------------------------------------------
# Peak-position families and observed splitting
# ---------------------------------------------------------------------------


def peak_positions_vs_decoherence(
    n_list: list[int],
    gamma_grid: np.ndarray,
    g: float = 1.0,
    family: str = "pumped",
) -> list[dict]:
    """Inner/outer transition energies against the relevant decoherence rate.

    ``family='spontaneous'`` uses the undriven ladder (Gamma = gamma_a -
    gamma_sigma); ``family='pumped'`` the pumped positions (Gamma read as
    Gamma_sigma - gamma_phi; which abscissa to plot is the caller's choice).
    """
    rows = []
    for n in n_list:
        for G in np.asarray(gamma_grid, dtype=float):
            q = (G / 4.0) ** 2
            if family == "spontaneous":
                up = np.sqrt(complex(g**2 * (n + 1) - q))
                dn = np.sqrt(complex(g**2 * n - q))
                inner, outer = (up - dn).real, (up + dn).real
            elif family == "pumped":
                inner = np.sqrt(complex(g**2 * (math.sqrt(n + 1) - math.sqrt(n)) ** 2 - q)).real
                outer = np.sqrt(complex(g**2 * (math.sqrt(n + 1) + math.sqrt(n)) ** 2 - q)).real
            else:
                raise ValueError(f"unknown family {family!r}")
            rows.append(
                {"family": family, "n": n, "Gamma": float(G),
                 "omega_inner": float(inner), "omega_outer": float(outer)}
            )
    return rows


@dataclass(frozen=True)
class ObservedSplitting:
    peak_position: float
    neck_position: float
    peak_value: float
    neck_value: float
    resolvable: bool


def observed_splitting(spec: SpectrumResult, min_contrast: float = 1e-3) -> ObservedSplitting:
    """Locate the positive-frequency side peak and the neck toward omega = 0.

    Raises NotResolvable when no strictly positive local maximum exists;
    otherwise reports whether the peak clears the neck by ``min_contrast``.
    """
    w, v = spec.omega, spec.values
    interior = np.arange(1, len(w) - 1)
    is_max = (v[interior] > v[interior - 1]) & (v[interior] > v[interior + 1])
    pos = interior[is_max & (w[interior] > 0.0)]
    if len(pos) == 0:
        raise NotResolvableError("no local maximum at omega > 0")
    ip = pos[np.argmax(v[pos])]
    izero = int(np.argmin(np.abs(w)))
    lo, hi = sorted((izero, ip))
    ineck = lo + int(np.argmin(v[lo : hi + 1]))
    resolvable = v[ip] > (1.0 + min_contrast) * v[ineck]
    return ObservedSplitting(
        peak_position=float(w[ip]),
        neck_position=float(w[ineck]),
        peak_value=float(v[ip]),
        neck_value=float(v[ineck]),
        resolvable=bool(resolvable),
    )


def side_weight_visibility(lines: list[SpectralLine], center_cut: float) -> float:
    """Weight imbalance of the two side bands of a line set."""
    wp = sum(ln.L for ln in lines if ln.omega > center_cut)
    wm = sum(ln.L for ln in lines if ln.omega < -center_cut)
    tot = abs(wp) + abs(wm)
    return abs(wp - wm) / tot if tot > 0.0 else 0.0
