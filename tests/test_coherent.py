import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coherent_reference as coherent
from jclaser.errors import EmptyChannelError
from jclaser.params import LaserDriveParams
import spectra_reference as ref


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
    assert ref.mollow_splitting(d) == pytest.approx(math.sqrt(9.0 - 1.0 / 16.0))


def test_strong_coupling_boundary():
    gs, gp = 1.0, 0.2
    edge = abs(gs - gp) / 8.0
    below = LaserDriveParams(omega_L=edge * 0.98, gamma_sigma=gs, gamma_phi=gp)
    above = LaserDriveParams(omega_L=edge * 1.02, gamma_sigma=gs, gamma_phi=gp)
    assert ref.mollow_splitting(below).real == 0.0
    assert ref.mollow_splitting(above).real > 0.0


def test_dephasing_induced_strong_coupling_window():
    om, gs = 0.05, 1.0  # too weak to split on its own (om < gs/8)
    lo, hi = gs - 8.0 * om, gs + 8.0 * om
    for gp, split in ((lo * 0.95, False), ((lo + hi) / 2.0, True), (hi * 1.05, False)):
        d = LaserDriveParams(omega_L=om, gamma_sigma=gs, gamma_phi=gp)
        assert (ref.mollow_splitting(d).real > 0.0) is split
    # maximum splitting over dephasing sits at gamma_phi = gamma_sigma
    d_eq = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, gamma_phi=1.0)
    assert ref.mollow_splitting(d_eq).real == pytest.approx(2.0 * 1.5)
    for gp in (0.0, 0.5, 1.5, 2.5):
        d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, gamma_phi=gp)
        assert ref.mollow_splitting(d).real <= 3.0 + 1e-12


def test_coherent_weight_value():
    # 1/19 at Omega = 1.5 gamma, no dephasing; oracle |<s'>|^2 / n_sigma
    d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0)
    assert coherent.coherent_weight(d) == pytest.approx(1.0 / 19.0, rel=1e-14)
    ss = coherent.coherent_steady_state(d)
    assert coherent.coherent_weight(d) == pytest.approx(
        abs(ss.sigma_coherence) ** 2 / ss.n_sigma, rel=1e-12
    )
    res = coherent.spectrum(d, np.array([0.0]))
    assert res.elastic_weight == pytest.approx(1.0 / 19.0, rel=1e-10)


def test_weight_normalization():
    for dl, gp in ((0.0, 0.0), (2.0, 1.0), (-1.3, 0.4)):
        d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, delta=dl, gamma_phi=gp)
        res = coherent.spectrum(d, np.array([0.0]))
        total = sum(ln.L for ln in res.lines) + res.elastic_weight
        assert total == pytest.approx(1.0, abs=1e-10)


def test_closed_form_equals_line_sum():
    # resonant closed form equals the line sum pointwise to 1e-12 relative
    d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0)
    w = np.linspace(-20.0, 20.0, 801)
    closed, _ = coherent.mollow_spectrum_resonant(d, w)
    from_lines = coherent.spectrum(d, w).values
    assert np.max(np.abs(closed - from_lines)) <= 1e-12 * np.max(closed)


def test_resonant_closed_form_lines_match_numeric():
    for om, gp in ((1.5, 0.0), (1.5, 0.4), (0.02, 0.0), (0.3, 2.5)):
        d = LaserDriveParams(omega_L=om, gamma_sigma=1.0, gamma_phi=gp)
        w = np.linspace(-15.0, 15.0, 501)
        a = coherent.spectrum(d, w).values
        b = ref.resonant_lines(d, w).values
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
    vals = coherent.spectrum(d, w).values
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
    res = coherent.spectrum(d, np.array([0.0]))
    assert len(res.lines) <= 3
    total = sum(ln.L for ln in res.lines) + res.elastic_weight
    assert total == pytest.approx(1.0, abs=1e-9)


def test_undriven_lossless_emitter_is_empty():
    # no drive and no decay leave no steady-state denominator: empty by convention
    ss = coherent.coherent_steady_state(LaserDriveParams(omega_L=0.0))
    assert ss.n_sigma == 0.0 and ss.sigma_coherence == 0.0


def test_detuned_drive_without_width_does_not_couple():
    assert coherent.effective_drive(LaserDriveParams(omega_L=1.5, delta=0.5)) == 0.0


def test_undriven_emitter_has_no_spectrum():
    # n_sigma = 0 leaves nothing to normalise the lines by
    with pytest.raises(EmptyChannelError, match="^empty channel: its population n_c = 0 "):
        coherent.spectrum(LaserDriveParams(omega_L=0.0, gamma_sigma=1.0), np.array([0.0]))


def test_a_drive_without_a_finite_steady_state_is_refused():
    # omega_L^2 overflows at omega_L 1e200, so n_sigma would read inf / inf
    refusal = (r"^the drive omega_L = 1e\+200 \(delta = 0.0, gamma_sigma = 1.0, gamma_phi = 0.0\) "
               r"has no finite steady state$")
    with pytest.raises(ValueError, match=refusal):
        coherent.spectrum(LaserDriveParams(omega_L=1e200, gamma_sigma=1.0), np.array([0.0]))
    with pytest.raises(ValueError, match=refusal):
        coherent.asymmetry_visibility_map(1e200, [0.0, 0.0], 1.0, [0.0, 1.0])  # names the first
    # 2 omega_L^2 overflows alone: n_sigma would read 1e308 / inf = 0
    with pytest.raises(ValueError, match=r"^the drive omega_L = 1e\+154 "):
        coherent.spectrum(LaserDriveParams(omega_L=1e154, gamma_sigma=1.0), np.array([0.0]))
    # a far-detuned drive whose tilt^2 overflows does not couple: finite and empty
    V, defined = coherent.asymmetry_visibility_map(1.5, 1e200, 1.0, 0.0)
    assert V.tolist() == [0.0] and not defined[0]


_rate = st.one_of(st.just(0.0), st.floats(0.01, 5.0))
_detuning = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))
_drives = st.lists(st.tuples(_rate, _detuning, _rate, _rate), min_size=1, max_size=8)


def _arrays(drives):
    return [np.array(col) for col in zip(*drives)]


@given(drives=_drives)
# undriven blocks with a subnormal detuning: a singular one, and one whose
# solve met a subnormal pivot
@example(drives=[(0.0, 2.225073858507e-311, 0.0, 0.0)])
@example(drives=[(1.0, 5e-324, 0.0, 0.0)])
@settings(max_examples=60, deadline=None)
def test_array_route_matches_the_per_drive_oracle(drives):
    # the runtime's array expressions against the per-drive steady state,
    # regression matrix and decomposition, drive by drive, zeros included
    from jclaser.coherent import _correlator_decomposition, _steady_state

    records = [LaserDriveParams(omega_L=om, delta=dl, gamma_sigma=gs, gamma_phi=gp) for om, dl, gs, gp in drives]
    n_sigma, coherence = _steady_state(*_arrays(drives))
    dec = _correlator_decomposition(*_arrays(drives))
    V, defined = coherent.asymmetry_visibility_map(*_arrays(drives))
    for k, d in enumerate(records):
        ss = coherent.coherent_steady_state(d)
        assert abs(n_sigma[k] - ss.n_sigma) <= 1e-15 * ss.n_sigma
        assert abs(coherence[k] - ss.sigma_coherence) <= 1e-15 * abs(ss.sigma_coherence)
        # eigenvalues on the scale of the largest, weights and elastic part on
        # n_c, the population they split between them
        one = coherent.correlator_decomposition(d)
        assert np.max(np.abs(dec.lams[k] - one.lams)) <= 1e-12 * np.max(np.abs(one.lams))
        assert np.max(np.abs(dec.weights[k] - one.weights)) <= 1e-12 * one.n_c
        assert abs(dec.elastic[k] - one.elastic) <= 1e-12 * one.n_c
        # a weak, far-detuned drive scatters nearly all elastically: its side
        # weights are ~1e-4 of n_c, and V carries their relative rounding
        v, ok = coherent.asymmetry_visibility(d)
        assert defined[k] == ok
        assert abs(V[k] - v) <= 1e-10


def test_one_drive_is_the_one_element_map():
    # a single drive and a row of a stacked map read one decomposition, bit for bit
    from jclaser.coherent import _correlator_decomposition

    d = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0, delta=2.0, gamma_phi=1.0)
    stacked = _correlator_decomposition(1.5, [0.0, 2.0], 1.0, [0.0, 1.0])
    res = coherent.spectrum(d, np.array([0.0]))
    assert res.meta["n_c"] == stacked.n_c[1]
    assert res.elastic_weight == stacked.elastic[1].real / stacked.n_c[1]
    V, defined = coherent.asymmetry_visibility_map(1.5, [0.0, 2.0], 1.0, [0.0, 1.0])
    V_one, defined_one = coherent.asymmetry_visibility_map(1.5, 2.0, 1.0, 1.0)
    assert defined.tolist() == [True, True] and defined_one.tolist() == [True]
    assert V[1] == V_one[0] > 0.01


@given(
    om=st.floats(0.01, 2.0),
    gs=st.floats(0.0, 5.0),
    margin=st.floats(0.05, 3.0),
    above=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_overdamped_resonant_drive_has_no_side_peaks(om, gs, margin, above):
    # |gamma_phi - gamma_sigma| / 2 > 4 omega_L at delta = 0: all three lines
    # sit at zero, so which two are "side" lines is rounding noise
    edge = 8.0 * om * (1.0 + margin)
    if not above and gs <= edge:
        gs += edge
    gp = gs + edge if above else gs - edge
    V, defined = coherent.asymmetry_visibility_map(om, 0.0, gs, gp)
    assert not defined[0] and V[0] == 0.0
    assert coherent.asymmetry_visibility(LaserDriveParams(omega_L=om, gamma_sigma=gs, gamma_phi=gp)) == (0.0, False)


def test_visibility_does_not_follow_rounding_noise():
    # the side peaks of an overdamped drive were once picked by the ~1e-16
    # imaginary parts of its eigenvalues: V jumped from 0.17 to 1.0 when
    # gamma_phi moved by 1 ulp (omega_L 0.3, gamma_sigma 2, gamma_phi 4.474576)
    V, defined = coherent.asymmetry_visibility_map(0.3, 0.0, 2.0, [4.474576, np.nextafter(4.474576, 9.0)])
    assert V.tolist() == [0.0, 0.0] and not defined.any()
    grid = np.linspace(0.0, 10.0, 60)  # the CLI's default map at gamma_sigma 2
    d_col, f_col = np.repeat(grid, 60), np.tile(grid, 60)
    V, defined = coherent.asymmetry_visibility_map(0.3, d_col, 2.0, f_col)
    V_up, defined_up = coherent.asymmetry_visibility_map(0.3, d_col, 2.0, np.nextafter(f_col, np.inf))
    assert np.array_equal(defined, defined_up) and 0 < np.sum(~defined) < 60
    assert np.max(np.abs(V - V_up)[defined]) <= 1e-12
