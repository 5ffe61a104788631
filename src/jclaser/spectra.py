"""Analytic spectra of the incoherently pumped system.

Valid deep in strong coupling, where the photon dynamics is slow against the
emitter and coupling dynamics: the steady density matrix follows from the
photon statistics T[n] alone, and each ladder rung contributes four lines at
the inner/outer Rabi frequencies, solved rung by rung from 4x4 blocks.  The
photon statistics T[n] is an argument: the commands pass the exact one, and
the tests pass Poissonian and cothermal ones as well.

Frequencies are measured from the cavity; the emitter sits at -delta.
"""

from __future__ import annotations

import math

import numpy as np

from .approximations import lasing_window_ok, semiclassical
from .lineshape import (
    Decomposition,
    SpectralLine,
    SpectrumResult,
    channel_population,
    decompose,
    evaluate_lines,
    lines_from_eigenpairs,
)
from .params import SystemParams, kappa_a, kappa_sigma

_TAIL = 1e-12  # rungs with both statistics weights below this (relative) are dropped
_LINE_FLOOR = 1e-14  # rung lines with |L| + |K| below this are dropped


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


# ---------------------------------------------------------------------------
# Rung lines
# ---------------------------------------------------------------------------


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
    meta = {"validity_window": lasing_window_ok(params), "rungs": len(dec.n_c)}
    return _rung_spectrum(dec, channel, omega, "approx", meta)


def _rung_spectrum(
    dec: Decomposition, channel: str, omega: np.ndarray, method: str, meta: dict
) -> SpectrumResult:
    """Lines of all rung blocks, normalized by their summed population (refused if it is 0)."""
    n_c = channel_population(dec.n_c)
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
    (3 Gamma_sigma + gamma_phi)/2.  Cavity: quasi-elastic line of unit
    weight and estimated width 2 g^2 gamma_a / P_sigma^2, rasterized at that
    finite width, so no weight is elastic.  Off resonance the single-rung
    substitution n = n_a is evaluated instead.  Both channels are refused at P_sigma = 0, below
    any lasing: the cavity line has no width there, and the emitter forms
    go negative.  They are refused at gamma_a = 0 too, where the cavity line
    has no width and kappa_sigma is infinite.  An emitter spectrum with any
    negative or non-finite value is refused as well.
    """
    if channel not in ("emitter", "cavity"):
        raise ValueError(f"unknown channel {channel!r}")
    if not params.P_sigma > 0.0:
        raise ValueError(f"the semiclassical {channel} line needs P_sigma > 0, got P_sigma = {params.P_sigma}")
    if not params.gamma_a > 0.0:
        raise ValueError(f"the semiclassical {channel} line needs gamma_a > 0, got gamma_a = {params.gamma_a}")
    omega = np.asarray(omega, dtype=float)
    if channel == "cavity":
        gl = lasing_linewidth(params)
        line = SpectralLine(omega=0.0, gamma=gl, L=1.0, K=0.0)
        return SpectrumResult(
            channel=channel,
            omega=omega,
            values=evaluate_lines([line], omega),
            lines=[line],
            method="semiclassical",
            meta={"gamma_L": gl},
        )
    if params.delta != 0.0:
        return _nonnegative(approx_spectrum_single_rung(params, semiclassical(params).n_a, channel, omega), params)

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
    return _nonnegative(SpectrumResult(
        channel=channel,
        omega=omega,
        values=central + numer / denom / math.pi,
        elastic_weight=float(delta_w),
        lines=[],
        method="semiclassical",
        meta={
            "side_splitting": incoherent_mollow_splitting(params).real,
            "side_fwhm": (3.0 * G + f) / 2.0,
            "central_fwhm": G + f,
            "negative_delta": delta_w < 0.0,
        },
    ), params)


def _nonnegative(res: SpectrumResult, params: SystemParams) -> SpectrumResult:
    if not np.all(np.isfinite(res.values)):
        raise ValueError(f"the semiclassical {res.channel} spectrum is not finite "
                         f"(lasing_window_ok: {lasing_window_ok(params)})")
    low = float(np.min(res.values, initial=0.0))
    if low < 0.0:
        raise ValueError(f"the semiclassical {res.channel} spectrum goes negative, down to {low:.3g} "
                         f"(lasing_window_ok: {lasing_window_ok(params)})")
    return res
