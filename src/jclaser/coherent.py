"""Coherently driven two-level emitter: steady state and Mollow triplet.

Everything is worked out in the frame rotating with the laser, so spectra
are functions of ``omega - omega_L`` and the elastic peak sits at zero.
Dephasing and detuning are included throughout.  The resonant triplet has a
closed form; away from resonance the lines come from ``lineshape.decompose``
of the 3x3 regression matrix of the (sigma, sigma', sigma'sigma) operator
set, stacked over as many drives as a caller asks for at once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lineshape import (
    Decomposition,
    SpectralLine,
    decompose,
    evaluate_lines,
    lines_from_eigenpairs,
    merge_degenerate,
)
from .params import LaserDriveParams


@dataclass(frozen=True)
class CoherentSteadyState:
    n_sigma: float
    sigma_coherence: complex  # <sigma'> in the rotating frame
    omega_eff: float


def effective_drive(drive: LaserDriveParams) -> float:
    """Drive reduced by the laser-emitter spectral overlap."""
    width = drive.gamma_sigma + drive.gamma_phi
    if drive.delta == 0.0:
        return drive.omega_L
    if width == 0.0:
        return 0.0
    return drive.omega_L / math.sqrt(1.0 + (2.0 * drive.delta / width) ** 2)


def coherent_steady_state(drive: LaserDriveParams) -> CoherentSteadyState:
    """Emitter population and coherence under cw drive."""
    om_eff = effective_drive(drive)
    denom = 2.0 * om_eff**2 + (drive.gamma_sigma / 2.0) * (
        (drive.gamma_sigma + drive.gamma_phi) / 2.0
    )
    if denom == 0.0:
        # undriven, lossless: empty emitter by convention
        return CoherentSteadyState(0.0, 0.0 + 0.0j, om_eff)
    n_sigma = om_eff**2 / denom
    if drive.omega_L == 0.0:
        coherence = 0.0 + 0.0j
    else:
        width = drive.gamma_sigma + drive.gamma_phi
        tilt = 0.0 if width == 0.0 else 2.0 * drive.delta / width
        coherence = (
            1j * (drive.gamma_sigma / 2.0) / drive.omega_L * n_sigma * (1.0 - 1j * tilt)
        )
    return CoherentSteadyState(n_sigma, coherence, om_eff)


def regression_matrix(drive: LaserDriveParams) -> np.ndarray:
    """3x3 generator for (<s'(0)s(t)>, <s'(0)s'(t)>, <s'(0)s's(t)>)."""
    gs, gp, om, dl = drive.gamma_sigma, drive.gamma_phi, drive.omega_L, drive.delta
    half = (gs + gp) / 2.0
    return np.array(
        [
            [-1j * dl + half, 0.0, -2j * om],
            [0.0, 1j * dl + half, 2j * om],
            [-1j * om, 1j * om, gs],
        ],
        dtype=complex,
    )


def mollow_splitting(drive: LaserDriveParams) -> complex:
    """Half splitting R_L; real in strong coupling, imaginary in weak."""
    arg = (2.0 * drive.omega_L) ** 2 - ((drive.gamma_sigma - drive.gamma_phi) / 4.0) ** 2
    return cmath.sqrt(complex(arg))


@dataclass(frozen=True)
class CoherentLines:
    """Triplet decomposition plus the elastic (delta) weight."""

    lines: tuple[SpectralLine, ...]
    coherent_weight: float
    n_sigma: float


def _correlator_decomposition(drives: list[LaserDriveParams]) -> Decomposition:
    """Stacked decomposition of <sigma'(0)sigma(tau)>, one block per drive.

    The vector v of ``regression_matrix`` obeys dv/dtau = -M v + A <s'>,
    A = i omega_L (-1, 1, 0), from v(0) = (n_sigma, 0, 0); so n_c is n_sigma
    and the elastic part is the stationary v_0.
    """
    states = [coherent_steady_state(d) for d in drives]
    M = np.stack([regression_matrix(d) for d in drives])
    drive_coh = np.array([1j * d.omega_L * ss.sigma_coherence for d, ss in zip(drives, states)])
    u0 = np.array([[ss.n_sigma, 0.0, 0.0] for ss in states], dtype=complex)
    return decompose(-M, u0, np.array([1.0, 0.0, 0.0]), drive_coh[:, None] * np.array([-1.0, 1.0, 0.0]))


def coherent_correlator_lines(drive: LaserDriveParams) -> CoherentLines:
    """Line decomposition of <sigma'(0)sigma(tau)> at arbitrary detuning.

    Weights are normalized so that they sum to one together with the elastic
    weight.
    """
    dec = _correlator_decomposition([drive])
    n_sigma = float(dec.n_c[0])
    if n_sigma == 0.0:
        return CoherentLines((), 0.0, 0.0)
    lines = lines_from_eigenpairs(dec.lams, dec.weights / n_sigma)
    return CoherentLines(tuple(lines), float(dec.elastic[0].real / n_sigma), n_sigma)


def coherent_weight(drive: LaserDriveParams) -> float:
    """Elastic scattering weight |<s'>|^2 / n_sigma, closed form."""
    om_eff = effective_drive(drive)
    gs, gp = drive.gamma_sigma, drive.gamma_phi
    denom = 8.0 * om_eff**2 + gs * (gs + gp)
    if denom == 0.0:
        return 0.0
    return gs**2 / denom


def resonant_lines(drive: LaserDriveParams) -> CoherentLines:
    """Closed-form triplet at resonance (independent check of the 3x3 route).

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
    return CoherentLines(tuple(lines), coherent_weight(drive), coherent_steady_state(drive).n_sigma)


def mollow_spectrum_resonant(
    drive: LaserDriveParams, omega: np.ndarray
) -> tuple[np.ndarray, float]:
    """Closed-form resonant triplet on a grid; the delta weight is returned
    separately and never added to the grid values."""
    if drive.delta != 0.0:
        raise ValueError("closed form requires delta = 0")
    gs, gp, om = drive.gamma_sigma, drive.gamma_phi, drive.omega_L
    w = np.asarray(omega, dtype=float)
    half = (gs + gp) / 2.0
    central = (1.0 / (2.0 * np.pi)) * half / (half**2 + w**2)
    num = gs * om**2 - (gs - gp) / 16.0 * (gs**2 + w**2)
    den = (
        (gs**2 + w**2) / 16.0 * ((gs + gp) ** 2 + 4.0 * w**2)
        + (gs * (gs + gp) - 2.0 * w**2) * om**2
        + 4.0 * om**4
    )
    side = np.zeros_like(w)
    np.divide(num, den, out=side, where=den != 0.0)
    return central + side / np.pi, coherent_weight(drive)


def spectrum_from_lines(drive: LaserDriveParams, omega: np.ndarray) -> np.ndarray:
    """Incoherent spectrum from the general line decomposition."""
    return evaluate_lines(list(coherent_correlator_lines(drive).lines), omega)


def asymmetry_visibility(drive: LaserDriveParams) -> tuple[float, bool]:
    """Side-peak intensity imbalance V = |L+ - L-| / (|L+| + |L-|).

    Returns (V, defined); ``defined`` is False when both side weights vanish,
    in which case V is reported as 0.
    """
    V, defined = asymmetry_visibility_map([drive])
    return float(V[0]), bool(defined[0])


def asymmetry_visibility_map(drives: list[LaserDriveParams]) -> tuple[np.ndarray, np.ndarray]:
    """``asymmetry_visibility`` of many drives from one stacked decomposition.

    The side peaks are the two lines farthest from the laser frequency; a
    drive with fewer than three lines (no drive, or merged lines) has none.
    """
    dec = _correlator_decomposition(drives)
    driven = dec.n_c > 0.0
    lams, weights, keep = merge_degenerate(dec.lams, dec.weights / np.where(driven, dec.n_c, 1.0)[:, None])
    keep &= driven[:, None]
    order = np.argsort(np.where(keep, np.abs(lams.imag), -1.0), axis=-1, kind="stable")
    side = np.take_along_axis(weights.real, order[:, -2:], axis=-1)
    tot = np.sum(np.abs(side), axis=-1)
    defined = (np.sum(keep, axis=-1) >= 3) & (tot >= 1e-300)
    V = np.where(defined, np.abs(side[:, 0] - side[:, 1]) / np.where(defined, tot, 1.0), 0.0)
    return V, defined


def spectrum_by_propagation(
    drive: LaserDriveParams,
    omega: np.ndarray,
    dtau: float | None = None,
    decay_cut: float = 1e-12,
) -> np.ndarray:
    """Incoherent spectrum by stepwise propagation plus discrete FT.

    Independent of any eigendecomposition: the correlator is advanced with a
    fixed matrix exponential step (assembled by repeated squaring), the
    constant elastic part subtracted, and the half-line Fourier integral done
    by trapezoid-corrected FFT-style summation on the requested grid.
    """
    ss = coherent_steady_state(drive)
    if ss.n_sigma == 0.0:
        return np.zeros_like(np.asarray(omega, dtype=float))
    M = regression_matrix(drive)
    A = 1j * drive.omega_L * np.array([-1.0, 1.0, 0.0], dtype=complex)
    u = np.linalg.solve(M, A)
    x0 = np.array([ss.n_sigma, 0.0, 0.0], dtype=complex) - u * ss.sigma_coherence

    # slowest amplitude decay is gamma_sigma/2; horizon from the cut level
    rate = drive.gamma_sigma / 2.0
    if rate == 0.0:
        rate = max(drive.omega_L, drive.gamma_phi, 1.0) / 2.0
    tau_max = math.log(1.0 / decay_cut) / rate
    w = np.asarray(omega, dtype=float)
    w_max = max(np.max(np.abs(w)), 2.0 * drive.omega_L, 2.0 * rate)
    if dtau is None:
        dtau = min(2.0 * math.pi / w_max / 100.0, tau_max / 4096.0)
    n_steps = int(np.ceil(tau_max / dtau))
    if n_steps % 2 == 0:  # Simpson needs an odd sample count
        n_steps += 1

    from scipy.linalg import expm

    E = expm(-M * dtau)
    states = x0.reshape(3, 1)
    Ek = E
    while states.shape[1] < n_steps:
        states = np.hstack([states, Ek @ states])
        Ek = Ek @ Ek
    corr = states[0, :n_steps]

    weights = np.full(n_steps, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weighted = corr * (weights * dtau / 3.0)

    taus = dtau * np.arange(n_steps)
    out = np.empty_like(w)
    chunk = max(1, int(4e6 // n_steps))
    for i in range(0, len(w), chunk):
        phase = np.exp(1j * np.outer(w[i : i + chunk], taus))
        out[i : i + chunk] = (phase @ weighted).real
    return out / (np.pi * ss.n_sigma)
