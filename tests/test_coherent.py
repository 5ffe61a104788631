import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jclaser import coherent
from jclaser.lineshape import evaluate_lines
from jclaser.params import LaserDriveParams


def dense_two_level_steady(drive):
    """Independent oracle: steady state of the driven two-level master
    equation solved as a dense 4x4 linear system over vec(rho)."""
    om, dl, gs, gp = drive.omega_L, drive.delta, drive.gamma_sigma, drive.gamma_phi
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sp_ = sm.conj().T
    H = -dl * sp_ @ sm + om * (sm + sp_)
    ident = np.eye(2, dtype=complex)

    def diss(c, rate):
        cdc = c.conj().T @ c
        return rate / 2.0 * (
            2.0 * np.kron(c, c.conj()) - np.kron(cdc, ident) - np.kron(ident, cdc.T)
        )

    L = 1j * (np.kron(ident, H.T) - np.kron(H, ident))
    L += diss(sm, gs) + diss(sp_ @ sm, gp)
    A = L.copy()
    A[0, :] = [1.0, 0.0, 0.0, 1.0]  # trace row
    b = np.zeros(4, dtype=complex)
    b[0] = 1.0
    rho = np.linalg.solve(A, b).reshape(2, 2)
    n_sigma = rho[1, 1].real
    coherence = np.trace(rho @ sp_)  # <sigma'>
    return n_sigma, coherence


@pytest.mark.parametrize(
    "drive",
    [
        LaserDriveParams(omega_L=0.5, gamma_sigma=1.0),
        LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, gamma_phi=0.7),
        LaserDriveParams(omega_L=2.2, gamma_sigma=0.8, gamma_phi=0.3, delta=1.4),
    ],
)
def test_steady_state_against_dense_oracle(drive):
    ss = coherent.coherent_steady_state(drive)
    n_ref, coh_ref = dense_two_level_steady(drive)
    assert ss.n_sigma == pytest.approx(n_ref, rel=1e-12)
    assert ss.sigma_coherence == pytest.approx(coh_ref, rel=1e-12)


def test_steady_state_examples():
    # no drive
    ss0 = coherent.coherent_steady_state(LaserDriveParams(omega_L=0.0, gamma_sigma=1.0))
    assert ss0.n_sigma == 0.0 and ss0.sigma_coherence == 0.0
    # saturation
    ss_inf = coherent.coherent_steady_state(LaserDriveParams(omega_L=1e8, gamma_sigma=1.0))
    assert ss_inf.n_sigma == pytest.approx(0.5, abs=1e-12)
    # Omega = gamma/2 at resonance, no dephasing: population 1/3
    ss = coherent.coherent_steady_state(LaserDriveParams(omega_L=0.5, gamma_sigma=1.0))
    assert ss.n_sigma == pytest.approx(1.0 / 3.0, rel=1e-14)
    # coherence purely imaginary at resonance
    d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, gamma_phi=0.4)
    assert abs(coherent.coherent_steady_state(d).sigma_coherence.real) < 1e-15


def test_mollow_splitting_value():
    # R_L = sqrt((2*1.5)^2 - (1/4)^2) = sqrt(9 - 1/16)
    d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0)
    assert coherent.mollow_splitting(d) == pytest.approx(math.sqrt(9.0 - 1.0 / 16.0))


def test_strong_coupling_boundary():
    gs, gp = 1.0, 0.2
    edge = abs(gs - gp) / 8.0
    below = LaserDriveParams(omega_L=edge * 0.98, gamma_sigma=gs, gamma_phi=gp)
    above = LaserDriveParams(omega_L=edge * 1.02, gamma_sigma=gs, gamma_phi=gp)
    assert coherent.mollow_splitting(below).real == 0.0
    assert coherent.mollow_splitting(above).real > 0.0


def test_dephasing_induced_strong_coupling_window():
    om, gs = 0.05, 1.0  # too weak to split on its own (om < gs/8)
    lo, hi = gs - 8.0 * om, gs + 8.0 * om
    for gp, split in ((lo * 0.95, False), ((lo + hi) / 2.0, True), (hi * 1.05, False)):
        d = LaserDriveParams(omega_L=om, gamma_sigma=gs, gamma_phi=gp)
        assert (coherent.mollow_splitting(d).real > 0.0) is split
    # maximum splitting over dephasing sits at gamma_phi = gamma_sigma
    d_eq = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, gamma_phi=1.0)
    assert coherent.mollow_splitting(d_eq).real == pytest.approx(2.0 * 1.5)
    for gp in (0.0, 0.5, 1.5, 2.5):
        d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, gamma_phi=gp)
        assert coherent.mollow_splitting(d).real <= 3.0 + 1e-12


def test_coherent_weight_value():
    # 1/19 at Omega = 1.5 gamma, no dephasing; oracle |<s'>|^2 / n_sigma
    d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0)
    assert coherent.coherent_weight(d) == pytest.approx(1.0 / 19.0, rel=1e-14)
    ss = coherent.coherent_steady_state(d)
    assert coherent.coherent_weight(d) == pytest.approx(
        abs(ss.sigma_coherence) ** 2 / ss.n_sigma, rel=1e-12
    )
    dec = coherent.coherent_correlator_lines(d)
    assert dec.coherent_weight == pytest.approx(1.0 / 19.0, rel=1e-10)


def test_weight_normalization():
    for dl, gp in ((0.0, 0.0), (2.0, 1.0), (-1.3, 0.4)):
        d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, delta=dl, gamma_phi=gp)
        dec = coherent.coherent_correlator_lines(d)
        total = sum(ln.L for ln in dec.lines) + dec.coherent_weight
        assert total == pytest.approx(1.0, abs=1e-10)


def test_closed_form_equals_line_sum():
    # resonant closed form equals the line sum pointwise to 1e-12 relative
    d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0)
    w = np.linspace(-20.0, 20.0, 801)
    closed, _ = coherent.mollow_spectrum_resonant(d, w)
    from_lines = evaluate_lines(list(coherent.coherent_correlator_lines(d).lines), w)
    assert np.max(np.abs(closed - from_lines)) <= 1e-12 * np.max(closed)


def test_resonant_closed_form_lines_match_numeric():
    for om, gp in ((1.5, 0.0), (1.5, 0.4), (0.02, 0.0), (0.3, 2.5)):
        d = LaserDriveParams(omega_L=om, gamma_sigma=1.0, gamma_phi=gp)
        w = np.linspace(-15.0, 15.0, 501)
        a = evaluate_lines(list(coherent.coherent_correlator_lines(d).lines), w)
        b = evaluate_lines(list(coherent.resonant_lines(d).lines), w)
        assert np.max(np.abs(a - b)) <= 1e-11 * np.max(a)


def test_normalization_of_incoherent_part():
    # incoherent part integrates to 1 - L_coh
    d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, gamma_phi=0.3)
    w = np.linspace(-4000.0, 4000.0, 2_000_001)
    vals, l_coh = coherent.mollow_spectrum_resonant(d, w)
    integral = np.trapezoid(vals, w)
    assert integral == pytest.approx(1.0 - l_coh, abs=2e-3)


@given(
    om=st.floats(0.01, 5.0),
    gp=st.floats(0.0, 5.0),
    dl=st.floats(-5.0, 5.0),
)
@settings(max_examples=40, deadline=None)
def test_spectrum_nonnegative(om, gp, dl):
    d = LaserDriveParams(omega_L=om, gamma_sigma=1.0, gamma_phi=gp, delta=dl)
    w = np.linspace(-30.0, 30.0, 601)
    vals = evaluate_lines(list(coherent.coherent_correlator_lines(d).lines), w)
    assert np.min(vals) >= -1e-9


def test_visibility_axes_and_quadrant():
    om, gs = 1.5, 1.0
    for dl, gp in ((0.0, 0.0), (0.0, 2.0), (3.0, 0.0)):
        V, _ = coherent.asymmetry_visibility(
            LaserDriveParams(omega_L=om, gamma_sigma=gs, delta=dl, gamma_phi=gp)
        )
        assert V == pytest.approx(0.0, abs=1e-10)
    V, defined = coherent.asymmetry_visibility(
        LaserDriveParams(omega_L=om, gamma_sigma=gs, delta=2.0, gamma_phi=1.0)
    )
    assert defined and V > 0.01


def test_visibility_undefined_without_drive():
    V, defined = coherent.asymmetry_visibility(LaserDriveParams(omega_L=0.0, gamma_sigma=1.0))
    assert V == 0.0 and not defined


def test_propagation_route_matches_closed_form():
    d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0)
    span = 10.0 * (d.gamma_sigma + d.omega_L)
    w = np.linspace(-span, span, 501)
    closed, _ = coherent.mollow_spectrum_resonant(d, w)
    numeric = coherent.spectrum_by_propagation(d, w)
    assert np.max(np.abs(closed - numeric)) <= 1e-6 * np.max(closed)


def test_degenerate_lines_merged_at_exceptional_point():
    gs = 1.0
    d = LaserDriveParams(omega_L=gs / 8.0, gamma_sigma=gs)  # R_L = 0 exactly
    dec = coherent.coherent_correlator_lines(d)
    assert len(dec.lines) <= 3
    total = sum(ln.L for ln in dec.lines) + dec.coherent_weight
    assert total == pytest.approx(1.0, abs=1e-9)
