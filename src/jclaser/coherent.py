"""Coherently driven two-level emitter: steady state and Mollow triplet.

Everything is worked out in the frame rotating with the laser, so spectra
are functions of ``omega - omega_L`` and the elastic peak sits at zero.
Dephasing and detuning are included throughout.  The lines come from
``lineshape.decompose`` of the 3x3 regression matrix of the (sigma, sigma',
sigma'sigma) operator set, stacked over as many drives as a caller asks for
at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lineshape import (
    Decomposition,
    SpectralLine,
    channel_population,
    decompose,
    lines_from_eigenpairs,
    merge_degenerate,
)
from .params import LaserDriveParams


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
    weight; an undriven emitter holds no population, and is refused.
    """
    dec = _correlator_decomposition([drive])
    n_sigma = channel_population(dec.n_c)
    lines = lines_from_eigenpairs(dec.lams, dec.weights / n_sigma)
    return CoherentLines(tuple(lines), float(dec.elastic[0].real / n_sigma), n_sigma)


def asymmetry_visibility_map(drives: list[LaserDriveParams]) -> tuple[np.ndarray, np.ndarray]:
    """Side-peak intensity imbalance V = |L+ - L-| / (|L+| + |L-|) of each
    drive, from one stacked decomposition, and whether V is defined.

    The side peaks are the two lines farthest from the laser frequency; a
    drive with fewer than three lines (no drive, or merged lines) has none,
    and where both side weights vanish V is undefined and reads 0.
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
