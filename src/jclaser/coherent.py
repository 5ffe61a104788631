"""Coherently driven two-level emitter: steady state and Mollow triplet.

Everything is worked out in the frame rotating with the laser, so spectra
are functions of ``omega - omega_L`` and the elastic peak sits at zero.
Dephasing and detuning are included throughout.  The lines come from
``lineshape.decompose`` of the 3x3 regression matrix of the (sigma, sigma',
sigma'sigma) operator set; ``spectrum`` returns them, normalised by
n_sigma, as the ``SpectrumResult`` of the other engines.  Steady state,
matrices and drive term are array expressions over the broadcast drive
rates (omega_L, delta, gamma_sigma, gamma_phi and an incoherent emitter
pump, 0 for the laser-driven emitter), so a map of drives is one pass and
one stacked decomposition, and a single drive is the one-element case.
``spectra.semiclassical_mollow`` drives the pumped emitter with the
mean-field laser.
"""

from __future__ import annotations

import numpy as np

from .lineshape import (
    _DEGENERACY_RTOL,
    Decomposition,
    SpectrumResult,
    decompose,
    decomposition_spectrum,
    merge_degenerate,
)
from .params import LaserDriveParams


def _steady_state(om, dl, gs, gp, P=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Emitter population n_sigma and coherence <sigma'> (rotating frame)
    of each drive under cw drive and incoherent pump P, elementwise over the
    rate arrays.

    The pump adds to the emitter's decay, Gamma = gamma_sigma + P.  The drive
    is reduced by the laser-emitter overlap, 1 / sqrt(1 + tilt^2) with
    tilt = 2 delta / width and width = Gamma + gamma_phi; a detuned drive on an
    emitter of zero width does not couple, and an undriven, lossless emitter
    is empty by convention.  Rates whose steady state, or its denominator,
    overflows to inf or nan raise ``ValueError``.
    """
    G = gs + P
    width = G + gp
    with np.errstate(over="ignore", invalid="ignore"):
        tilt = np.where(width == 0.0, 0.0, 2.0 * dl / np.where(width == 0.0, 1.0, width))
        om_eff = np.where(dl == 0.0, om, np.where(width == 0.0, 0.0, om / np.sqrt(1.0 + tilt**2)))
        denom = 2.0 * om_eff**2 + (G / 2.0) * (width / 2.0)
        empty = denom == 0.0
        n_sigma = np.where(empty, 0.0, ((P / 2.0) * (width / 2.0) + om_eff**2) / np.where(empty, 1.0, denom))
        undriven = empty | (om == 0.0)
        inverted = n_sigma - P / np.where(G == 0.0, 1.0, G)  # n_sigma less its undriven value P / Gamma
        coherence = np.where(
            undriven, 0.0, 1j * (G / 2.0) / np.where(undriven, 1.0, om) * inverted * (1.0 - 1j * tilt)
        )
    bad = ~(np.isfinite(denom) & np.isfinite(n_sigma) & np.isfinite(coherence))  # an inf denom reads n_sigma 0
    if np.any(bad):
        om, dl, gs, gp, P = (float(np.broadcast_to(x, bad.shape)[np.argmax(bad)]) for x in (om, dl, gs, gp, P))
        pump = f", P_sigma = {P!r}" if P else ""
        raise ValueError(f"the drive omega_L = {om!r} (delta = {dl!r}, gamma_sigma = {gs!r}, "
                         f"gamma_phi = {gp!r}{pump}) has no finite steady state")
    return n_sigma, coherence


def _correlator_decomposition(omega_L, delta, gamma_sigma, gamma_phi, P_sigma=0.0) -> Decomposition:
    """Stacked decomposition of <sigma'(0)sigma(tau)>, one block per drive.

    The rates, the emitter pump ``P_sigma`` among them, broadcast against
    each other to one axis of drives.  The vector v = (<s'(0)s(t)>,
    <s'(0)s'(t)>, <s'(0)s's(t)>) obeys dv/dtau = -M v + A <s'>, with
    A = (-i omega_L, i omega_L, P_sigma), from v(0) = (n_sigma, 0, 0); so n_c
    is n_sigma and the elastic part is the stationary v_0.
    """
    om, dl, gs, gp, P = np.broadcast_arrays(*(np.ravel(np.asarray(x, dtype=float)) for x in (
        omega_L, delta, gamma_sigma, gamma_phi, P_sigma)))
    n_sigma, coherence = _steady_state(om, dl, gs, gp, P)
    G = gs + P
    half = (G + gp) / 2.0
    M = np.zeros((om.size, 3, 3), dtype=complex)
    M[:, 0, 0] = -1j * dl + half
    M[:, 0, 2] = -2j * om
    M[:, 1, 1] = 1j * dl + half
    M[:, 1, 2] = 2j * om
    M[:, 2, 0] = -1j * om
    M[:, 2, 1] = 1j * om
    M[:, 2, 2] = G
    u0 = np.zeros((om.size, 3), dtype=complex)
    u0[:, 0] = n_sigma
    drive_coh = 1j * om * coherence
    inhom = drive_coh[:, None] * np.array([-1.0, 1.0, 0.0])
    inhom[:, 2] = P * coherence
    return decompose(-M, u0, np.array([1.0, 0.0, 0.0]), inhom)


def spectrum(drive: LaserDriveParams, omega: np.ndarray) -> SpectrumResult:
    """Emitter spectrum of <sigma'(0)sigma(tau)> at arbitrary detuning, on the
    grid ``omega`` (from the laser frequency).

    The lines and the elastic weight sum to one, and ``meta["n_c"]`` is
    n_sigma; an undriven emitter holds no population, and is refused.
    """
    dec = _correlator_decomposition(drive.omega_L, drive.delta, drive.gamma_sigma, drive.gamma_phi)
    return decomposition_spectrum(dec, "emitter", omega, "coherent")


def asymmetry_visibility_map(omega_L, delta, gamma_sigma, gamma_phi) -> tuple[np.ndarray, np.ndarray]:
    """Side-peak intensity imbalance V = |L+ - L-| / (|L+| + |L-|) of each
    drive, from one stacked decomposition, and whether V is defined.

    The rates broadcast to one axis of drives, as in
    ``_correlator_decomposition``.  The side peaks are the two lines farthest
    from the laser frequency.  A drive has none when it has fewer than three
    lines (no drive, or merged lines), or when a side line sits at the laser
    frequency within the degeneracy tolerance (an overdamped drive, whose
    three lines all sit at zero); there, and where both side weights
    vanish, V is undefined and reads 0.
    """
    dec = _correlator_decomposition(omega_L, delta, gamma_sigma, gamma_phi)
    driven = dec.n_c > 0.0
    lams, weights, keep = merge_degenerate(dec.lams, dec.weights / np.where(driven, dec.n_c, 1.0)[:, None])
    keep &= driven[:, None]
    offset = np.abs(lams.imag)
    order = np.argsort(np.where(keep, offset, -1.0), axis=-1, kind="stable")[:, -2:]
    side = np.take_along_axis(weights.real, order, axis=-1)
    tot = np.sum(np.abs(side), axis=-1)
    tol = _DEGENERACY_RTOL * np.max(np.abs(dec.lams), axis=-1)
    apart = np.min(np.take_along_axis(offset, order, axis=-1), axis=-1) >= tol
    defined = (np.sum(keep, axis=-1) >= 3) & apart & (tot >= 1e-300)
    V = np.where(defined, np.abs(side[:, 0] - side[:, 1]) / np.where(defined, tot, 1.0), 0.0)
    return V, defined
