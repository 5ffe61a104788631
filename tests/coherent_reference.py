"""The coherent-drive module with the oracles only the tests read.

Re-exports ``jclaser.coherent`` and adds the per-drive route the runtime
replaced by array expressions (the steady state, the effective drive and the
regression matrix of one ``LaserDriveParams``), the closed-form resonant
Mollow spectrum with its elastic weight, the side-peak visibility of one
drive, a spectrum by time propagation that uses no eigendecomposition, and
the driven, pumped emitter straight from its 4x4 Liouvillian,
so that the suite reads runtime and oracle through one name (``import
coherent_reference as coherent``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from jclaser.coherent import *  # noqa: F403 - the runtime names, read through this module
from jclaser.lineshape import _DEGENERACY_RTOL, decompose, merge_degenerate
from jclaser.params import LaserDriveParams


@dataclass(frozen=True)
class CoherentSteadyState:
    n_sigma: float
    sigma_coherence: complex  # <sigma'> in the rotating frame


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
        return CoherentSteadyState(0.0, 0.0 + 0.0j)
    n_sigma = om_eff**2 / denom
    if drive.omega_L == 0.0:
        coherence = 0.0 + 0.0j
    else:
        width = drive.gamma_sigma + drive.gamma_phi
        tilt = 0.0 if width == 0.0 else 2.0 * drive.delta / width
        coherence = (
            1j * (drive.gamma_sigma / 2.0) / drive.omega_L * n_sigma * (1.0 - 1j * tilt)
        )
    return CoherentSteadyState(n_sigma, coherence)


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


def correlator_decomposition(drive: LaserDriveParams):
    """``lineshape.decompose`` of one drive, from the per-drive route."""
    ss = coherent_steady_state(drive)
    inhom = 1j * drive.omega_L * ss.sigma_coherence * np.array([-1.0, 1.0, 0.0])
    u0 = np.array([ss.n_sigma, 0.0, 0.0], dtype=complex)
    return decompose(-regression_matrix(drive), u0, np.array([1.0, 0.0, 0.0]), inhom)


def coherent_weight(drive: LaserDriveParams) -> float:
    """Elastic scattering weight |<s'>|^2 / n_sigma, closed form."""
    om_eff = effective_drive(drive)
    gs, gp = drive.gamma_sigma, drive.gamma_phi
    denom = 8.0 * om_eff**2 + gs * (gs + gp)
    if denom == 0.0:
        return 0.0
    return gs**2 / denom


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


def asymmetry_visibility(drive: LaserDriveParams) -> tuple[float, bool]:
    """Side-peak intensity imbalance V = |L+ - L-| / (|L+| + |L-|).

    Returns (V, defined), one drive at a time from the per-drive route.  The
    side peaks are the two merged lines farthest from the laser frequency;
    ``defined`` is False, and V reported as 0, without a drive, with fewer
    than three lines, when a side line sits at the laser frequency within
    the degeneracy tolerance, or when both side weights vanish.
    """
    dec = correlator_decomposition(drive)
    if not dec.n_c > 0.0:
        return 0.0, False
    lams, weights, keep = merge_degenerate(dec.lams, dec.weights / dec.n_c)
    lines = sorted(zip(np.abs(lams.imag[keep]).tolist(), weights.real[keep].tolist()), key=lambda ln: ln[0])
    if len(lines) < 3:
        return 0.0, False
    (off_a, a), (off_b, b) = lines[-2:]
    if min(off_a, off_b) < _DEGENERACY_RTOL * np.max(np.abs(dec.lams)) or abs(a) + abs(b) < 1e-300:
        return 0.0, False
    return abs(a - b) / (abs(a) + abs(b)), True


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


def lindblad_emitter(om, dl, gs, gp, P, omega) -> tuple[float, float, np.ndarray]:
    """n_sigma, the elastic weight |<sigma'>|^2 / n_sigma and the
    normalised incoherent spectrum on ``omega`` of the two-level emitter
    driven at omega_L = ``om`` and detuning ``dl``, with decay ``gs``, pump
    ``P`` and dephasing ``gp``, straight from its 4x4 Liouvillian over
    vec(rho): the steady state by one dense solve with a trace row, the
    spectrum by one resolvent solve per frequency, with no
    eigendecomposition.  ``omega`` must not hold 0, where the resolvent is
    singular.
    """
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sp, one = sm.T, np.eye(2)
    H = -dl * sp @ sm + om * (sm + sp)

    def diss(c, rate):
        cdc = c.conj().T @ c
        return rate / 2.0 * (2.0 * np.kron(c, c.conj()) - np.kron(cdc, one) - np.kron(one, cdc.T))

    L = 1j * (np.kron(one, H.T) - np.kron(H, one)) + diss(sm, gs) + diss(sp, P) + diss(sp @ sm, gp)
    A = L.copy()
    A[0] = [1.0, 0.0, 0.0, 1.0]  # trace row
    rho = np.linalg.solve(A, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)).reshape(2, 2)
    n_sigma, coherence = rho[1, 1].real, np.trace(rho @ sp)
    # <sigma'(0) sigma(tau)> = Tr[sigma e^{L tau} (rho sigma')], less its limit
    # |<sigma'>|^2, integrated against e^{i omega tau}
    u = (rho @ sp).ravel() - rho.ravel() * coherence
    S = [(sm.T.ravel() @ np.linalg.solve(-(L + 1j * w * np.eye(4)), u)).real for w in np.asarray(omega, dtype=float)]
    return n_sigma, abs(coherence) ** 2 / n_sigma, np.array(S) / (math.pi * n_sigma)
