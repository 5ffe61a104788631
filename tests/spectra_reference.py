"""Closed forms the tests check the spectral engines against: the density
slices rebuilt from photon statistics and the elastic-weight series, rung
Rabi frequencies and labelled rung coefficients, peak-position families, the
resonant Mollow triplet of the driven emitter, the pump-driven Mollow
splitting and the closed-form triplet of the resonant mean-field laser (the
oracle of ``semiclassical_mollow``), the side-peak position read
off a spectrum grid, and the exact engine's spectrum straight from its
banded resolvent, one solve per frequency.

Re-exports ``jclaser.spectra`` and ``approximations_reference.poissonian_statistics``,
so that the suite reads runtime and oracle through one name
(``import spectra_reference as spectra``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from approximations_reference import poissonian_statistics  # noqa: F401 - read through this module
from coherent_reference import coherent_steady_state, coherent_weight
from jclaser import exact
from jclaser.errors import JclaserError
from jclaser.lineshape import SpectralLine, SpectrumResult, evaluate_lines
from jclaser.exact import SteadyState
from jclaser.params import LaserDriveParams, SystemParams, kappa_a, kappa_sigma
from jclaser.spectra import *  # noqa: F403 - the runtime names, read through this module
from jclaser.spectra import _TAIL, _rung_slices, _tilt, rung_decomposition


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
    return SteadyState(params=params, p0=p0, p1=p1, q_r=_tilt(params) * q_i, q_i=q_i)


def elastic_weight(params: SystemParams, T: np.ndarray, channel: str) -> float:
    """Re E^c of the elastic scattering component, closed-form series over
    the rungs; ``rung_decomposition(...).elastic`` is the runtime route."""
    T = np.asarray(T, dtype=float)
    G = params.Gamma_sigma
    ka = kappa_a(params)
    gs, P, g = params.gamma_sigma, params.P_sigma, params.g
    width = G + params.gamma_phi
    N = len(T) - 1
    n = np.arange(N + 1, dtype=float)
    D = ka**2 * (1.0 + _tilt(params) ** 2) + 4.0 * G**2 + 4.0 * G * ka * (2.0 * n + 1.0)
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
    n: int,
    channel: str,
) -> CorrelatorCoefficients:
    """Match the rung's four eigen-lines to the +-R_inner/outer pattern.

    Weights are normalized by the full channel population (n_sigma or n_a of
    the slices), so they are the per-rung contributions entering the total
    line sum.  Rung ``n`` must be one that ``rung_decomposition`` keeps.
    """
    T = np.asarray(T, dtype=float)
    kept = np.nonzero((T[:-1] >= _TAIL * T.max()) | (T[1:] >= _TAIL * T.max()))[0]
    (block,) = np.nonzero(kept == n)[0]
    dec = rung_decomposition(params, T, channel)
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
    lams = -dec.lams[block]  # eigenvalues of the decay matrix M, as the targets
    coeffs = dec.weights[block] / n_c
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


def side_weight_visibility(lines: list[SpectralLine], center_cut: float) -> float:
    """Weight imbalance of the two side bands of a line set."""
    wp = sum(ln.L for ln in lines if ln.omega > center_cut)
    wm = sum(ln.L for ln in lines if ln.omega < -center_cut)
    tot = abs(wp) + abs(wm)
    return abs(wp - wm) / tot if tot > 0.0 else 0.0


def mollow_splitting(drive: LaserDriveParams) -> complex:
    """Half splitting R_L; real in strong coupling, imaginary in weak."""
    arg = (2.0 * drive.omega_L) ** 2 - ((drive.gamma_sigma - drive.gamma_phi) / 4.0) ** 2
    return cmath.sqrt(complex(arg))


def resonant_lines(drive: LaserDriveParams, omega: np.ndarray) -> SpectrumResult:
    """Closed-form triplet at resonance on the grid ``omega`` (independent
    check of the 3x3 route, ``coherent.spectrum``).

    The first bracket of the side-line weights carries an imaginary unit,
    matching both the regression-matrix eigendecomposition and the final
    closed-form spectrum; without it the side weights come out asymmetric at
    resonance, which contradicts the symmetry of the lineshape.
    """
    if drive.delta != 0.0:
        raise ValueError("resonant_lines requires delta = 0")
    gs, gp, om = drive.gamma_sigma, drive.gamma_phi, drive.omega_L
    R = mollow_splitting(drive)
    central = SpectralLine(omega=0.0, gamma=gs + gp, L=0.5, K=0.0)
    ratio = 8.0 * om**2 / (gs * (gs + gp)) if gs * (gs + gp) != 0.0 else math.inf
    lines = [central]
    for sign in (+1.0, -1.0):
        if math.isinf(ratio):
            c = (1.0 + sign * 1j * (5.0 * gs - gp) / (4.0 * R)) / 4.0
        else:
            c = (
                ratio * (1.0 + sign * 1j * (5.0 * gs - gp) / (4.0 * R))
                - (gs - gp) / (gs + gp) * (1.0 + sign * 1j * (gs - gp) / (4.0 * R))
            ) / (4.0 * (1.0 + ratio))
        lines.append(
            SpectralLine(
                omega=float(sign * R.real),
                gamma=float((3.0 * gs + gp) / 2.0 - sign * 2.0 * R.imag),
                L=float(c.real),
                K=float(c.imag),
            )
        )
    omega = np.asarray(omega, dtype=float)
    return SpectrumResult(
        channel="emitter",
        omega=omega,
        values=evaluate_lines(lines, omega),
        elastic_weight=coherent_weight(drive),
        lines=lines,
        method="closed form",
        meta={"n_c": coherent_steady_state(drive).n_sigma},
    )


def incoherent_mollow_splitting(params: SystemParams) -> complex:
    """Pump-driven Mollow half splitting (closes at both low and high pump)."""
    G = params.Gamma_sigma
    arg = (2.0 * params.P_sigma - G) * kappa_sigma(params) / 2.0 - (
        (G + params.gamma_phi) / 4.0
    ) ** 2
    return complex(np.sqrt(arg + 0j))


def resonant_lasing_triplet(params: SystemParams, omega: np.ndarray) -> tuple[np.ndarray, float]:
    """Closed-form emitter spectrum of the resonant mean-field laser on the
    grid ``omega``, and its delta weight 2P/(Gamma + phi + kappa) - Gamma/kappa
    (independent check of ``semiclassical_mollow``).

    A central Lorentzian of FWHM Gamma_sigma + gamma_phi plus a rational
    part whose denominator is a quartic in omega^2, side bands at
    +-Re(incoherent_mollow_splitting) of FWHM (3 Gamma_sigma + gamma_phi)/2.
    It reads the semiclassical n_a without its clamp at threshold, so it
    holds above threshold only.
    """
    if params.delta != 0.0:
        raise ValueError("the closed-form triplet requires delta = 0")
    G, f = params.Gamma_sigma, params.gamma_phi
    k = kappa_sigma(params)
    P = params.P_sigma
    half = (G + f) / 2.0
    w2 = np.asarray(omega, dtype=float) ** 2
    central = (1.0 / (2.0 * math.pi)) * half / (half**2 + w2)
    denom = (G + f + k) * (
        (G - 2.0 * P) ** 2 * k**2 + ((3.0 * G + f) ** 2 + 4.0 * (G - 2.0 * P) * k) * w2 + 4.0 * w2**2
    )
    numer = (
        -4.0 * P**2 * k * (3.0 * G + f + k)
        + 2.0 * P * G * (3.0 * G**2 + 4.0 * G * (f + 2.0 * k) + (f + k) * (f + 3.0 * k))
        + 4.0 * P * k * w2
        - (G + f + k) * (G**2 * (3.0 * G + f + 2.0 * k) + (G - f) * w2)
    )
    return central + numer / denom / math.pi, 2.0 * P / (G + f + k) - G / k


def resolvent_spectrum(sec, omega: np.ndarray) -> np.ndarray:
    """S(w) = -Re F(w) / pi on the real frequencies ``omega`` (``exact._resolvent``)."""
    return -np.real(exact._resolvent(sec, np.asarray(omega, dtype=float))) / math.pi


class NotResolvableError(JclaserError):
    """No side peak exists in the spectrum at positive frequency."""


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

