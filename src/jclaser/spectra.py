"""Analytic spectra of the incoherently pumped system.

Valid deep in strong coupling, where the photon dynamics is slow against the
emitter and coupling dynamics: the steady density matrix follows from the
photon statistics T[n] alone, and each ladder rung contributes four lines at
the inner/outer Rabi frequencies, solved rung by rung from 4x4 blocks, whose
stacked decomposition ``lineshape.decomposition_spectrum`` normalises.  The
photon statistics T[n] is an argument: the commands pass the exact one, and
the tests pass Poissonian and cothermal ones as well.

The semiclassical spectra replace the photon statistics by the mean-field
laser: the emitter is ``coherent``'s pumped two-level block driven by the
field, one route at every detuning, and the cavity a single narrow line at
the pulled laser frequency.  Both go out through the same line-table
constructors.

Frequencies are measured from the cavity; the emitter sits at -delta.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .approximations import lasing_window_ok, semiclassical
from .coherent import _correlator_decomposition
from .lineshape import Decomposition, SpectralLine, SpectrumResult, decompose, decomposition_spectrum, line_spectrum
from .params import SystemParams, _manifold, kappa_a

_TAIL = 1e-12  # rungs with both statistics weights below this (relative) are dropped


# ---------------------------------------------------------------------------
# Density-matrix slices from the photon statistics
# ---------------------------------------------------------------------------


def _rung_slices(
    params: SystemParams, n: np.ndarray, Tn: np.ndarray, Tn1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p0[n+1], p1[n] and q_i[n+1] of rung n from T[n] and T[n+1],
    vectorised over the rung index."""
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


def rung_decomposition(params: SystemParams, T: np.ndarray, channel: str) -> Decomposition:
    """Eigen-decompose the per-rung correlator blocks and project them.

    Each rung n couples (S0[n+1], S1[n], Q[n], V[n+1]) as du/dtau = -M u + A,
    so the stacked blocks go to ``lineshape.decompose`` as G = -M with the
    inhomogeneity A, whose stationary part carries the elastic weight.  The
    result has one block per populated rung.
    """
    T = np.asarray(T, dtype=float)
    keep = (T[:-1] >= _TAIL * T.max()) | (T[1:] >= _TAIL * T.max())
    ni = np.nonzero(keep)[0]
    n = ni.astype(float)
    N = len(n)
    g, G = params.g, params.Gamma_sigma
    gs, P = params.gamma_sigma, params.P_sigma
    half = (G + params.gamma_phi) / 2.0
    sqn, sqn1 = np.sqrt(n), np.sqrt(n + 1.0)
    tilt = _tilt(params)
    xi_p, xi_m = tilt + 1j, tilt - 1j
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
    return decomposition_spectrum(dec, channel, omega, "approx", meta)


# ---------------------------------------------------------------------------
# Semiclassical spectra (deep lasing)
# ---------------------------------------------------------------------------


def lasing_linewidth(params: SystemParams) -> float:
    """Cavity line narrowing estimate 2 g^2 gamma_a / P_sigma^2."""
    return 2.0 * params.g**2 * params.gamma_a / params.P_sigma**2


def laser_frequency(params: SystemParams) -> float:
    """Frequency of the semiclassical laser field, pulled from the cavity
    toward the emitter: -delta gamma_a / Gamma_T[1], and +0.0, not -0.0,
    at resonance."""
    return (0.0 - params.delta) * params.gamma_a / _manifold(params, 1)[0]


def semiclassical_mollow(
    params: SystemParams, omega: np.ndarray, channel: str = "emitter"
) -> SpectrumResult:
    """Deep-lasing spectrum of the mean-field laser at any detuning.

    The field oscillates at ``laser_frequency`` with n_a photons, the
    ``approximations.semiclassical`` population.  Emitter: the pumped,
    dephased two-level emitter driven by the classical field g sqrt(n_a) at
    the laser-emitter detuning omega_L + delta (``coherent``'s block with the
    pump P_sigma), shifted into the cavity frame; a Mollow triplet with a
    delta of weight |<sigma>|^2 / n_sigma at omega_L, which ``meta`` names.
    Below threshold n_a = 0 leaves the undriven emitter, one line of FWHM
    Gamma_sigma + gamma_phi at -delta.  Cavity: a line of unit weight at
    omega_L and estimated width 2 g^2 gamma_a / P_sigma^2, rasterized at that
    finite width, so no weight is elastic.  Both channels are refused at
    P_sigma = 0, below any lasing, where the cavity line has no width and the
    emitter is empty; at gamma_a = 0, where the cavity line has no width and
    kappa_sigma is infinite; and at P_a != 0, which neither the mean field
    nor the line width carries.  An emitter spectrum with any negative or
    non-finite value is refused as well.
    """
    if channel not in ("emitter", "cavity"):
        raise ValueError(f"unknown channel {channel!r}")
    if not params.P_sigma > 0.0:
        raise ValueError(f"the semiclassical {channel} line needs P_sigma > 0, got P_sigma = {params.P_sigma}")
    if not params.gamma_a > 0.0:
        raise ValueError(f"the semiclassical {channel} line needs gamma_a > 0, got gamma_a = {params.gamma_a}")
    if params.P_a != 0.0:
        raise ValueError(f"the semiclassical {channel} line assumes P_a = 0, got P_a = {params.P_a}")
    omega = np.asarray(omega, dtype=float)
    w_L = laser_frequency(params)
    if channel == "cavity":
        gl = lasing_linewidth(params)
        line = SpectralLine(omega=w_L, gamma=gl, L=1.0, K=0.0)
        return line_spectrum([line], channel, omega, "semiclassical", {"gamma_L": gl})
    n_a = semiclassical(params).n_a
    dec = _correlator_decomposition(
        params.g * math.sqrt(n_a), w_L + params.delta, params.gamma_sigma, params.gamma_phi, params.P_sigma
    )
    dec = replace(dec, lams=dec.lams - 1j * w_L)  # from the laser frame to the cavity's
    meta = {"n_a": n_a, "omega_L": w_L}
    return _nonnegative(decomposition_spectrum(dec, channel, omega, "semiclassical", meta), params)


def _nonnegative(res: SpectrumResult, params: SystemParams) -> SpectrumResult:
    if not np.all(np.isfinite(res.values)):
        raise ValueError(f"the semiclassical {res.channel} spectrum is not finite "
                         f"(lasing_window_ok: {lasing_window_ok(params)})")
    low = float(np.min(res.values, initial=0.0))
    if low < 0.0:
        raise ValueError(f"the semiclassical {res.channel} spectrum goes negative, down to {low:.3g} "
                         f"(lasing_window_ok: {lasing_window_ok(params)})")
    return res
