import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

import approximations_reference as ap
from jclaser import exact, lineshape, spectra
from spectra_reference import NotResolvableError
from jclaser.lineshape import SpectrumResult
from jclaser.params import LaserDriveParams, SystemParams, kappa_a
import spectra_reference as ref

BASE = dict(g=1.0, gamma_a=0.1, gamma_sigma=0.00334)
LASING = SystemParams(P_sigma=7.0, **BASE)


# ---------------------------------------------------------------------------
# density-matrix slices
# ---------------------------------------------------------------------------


def test_slices_zero_emitter_decay_formula():
    p = SystemParams(g=1.0, gamma_a=0.05, gamma_sigma=0.0, P_sigma=2.0)
    T = ap.poissonian_statistics(8.0)
    sl = ref.density_slices_from_statistics(p, T)
    ka = kappa_a(p)
    for n in (0, 3, 9):
        expected = (
            -ka * math.sqrt(n + 1.0) / (2.0 * p.g)
            * p.P_sigma * T[n] / (2.0 * ka * (n + 1) + p.Gamma_sigma)
        )
        assert sl.q_i[n + 1] == pytest.approx(expected, rel=1e-14)


def test_slices_exact_for_lossless_cavity():
    # at gamma_a = P_a = 0 the closure p0 + p1 = T holds exactly and the
    # slices match the full Liouvillian steady state
    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=1.0, P_sigma=0.4)
    ss = exact.steady_state(p, n_max=50)
    T = ss.photon_distribution
    sl = ref.density_slices_from_statistics(p, T)
    assert np.max(np.abs(sl.photon_distribution - T)) < 1e-10
    assert np.max(np.abs(sl.p1[:30] - ss.p1[:30])) < 1e-8
    assert np.max(np.abs(sl.p0[:30] - ss.p0[:30])) < 1e-8
    qi_exact = np.array([ss.q_i[n] for n in range(1, 30)])
    assert np.max(np.abs(sl.q_i[1:30] - qi_exact)) < 1e-8


def test_slices_population_matches_semiclassical():
    # Poissonian statistics at the semiclassical point: emitter population
    # within 5% of the exact steady state
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0, P_sigma=4.0)
    T = ap.poissonian_statistics(18.0)
    sl = ref.density_slices_from_statistics(p, T)
    ss = exact.steady_state(p, n_max=80)
    assert float(np.sum(sl.p1)) == pytest.approx(ss.n_sigma, rel=0.05)
    assert float(np.sum(sl.p1)) == pytest.approx(ap.semiclassical(p).n_sigma, rel=0.05)


def test_slice_detuning_relation():
    p = SystemParams(P_sigma=5.0, delta=0.8, gamma_phi=0.3, **BASE)
    T = ap.poissonian_statistics(10.0)
    sl = ref.density_slices_from_statistics(p, T)
    tilt = 2.0 * p.delta / (p.Gamma_sigma + p.gamma_phi)
    assert np.allclose(sl.q_r, tilt * sl.q_i, rtol=0.0, atol=1e-16)


# ---------------------------------------------------------------------------
# Rabi frequencies
# ---------------------------------------------------------------------------


def test_rabi_frequency_values():
    # R0 at n = 0
    p = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.0, P_sigma=0.2)
    rf = ref.rabi_frequencies(p, 0)
    r0 = math.sqrt(1.0 - (0.2 / 4.0) ** 2)
    assert rf.inner == pytest.approx(r0) and rf.outer == pytest.approx(r0)
    # outer rung-1 value: sqrt((sqrt2+1)^2 - 0.05^2) with Gamma_sigma = 0.2
    rf1 = ref.rabi_frequencies(p, 1)
    assert rf1.outer.real == pytest.approx(2.41371, abs=2e-5)


def test_rabi_square_identity_and_realness():
    p = SystemParams(P_sigma=2.7, gamma_phi=0.4, **BASE)
    dec4 = (p.Gamma_sigma - p.gamma_phi) / 4.0
    for n in (0, 1, 5, 30):
        rf = ref.rabi_frequencies(p, n)
        for R, sgn in ((rf.inner, -1.0), (rf.outer, +1.0)):
            target = p.g**2 * (math.sqrt(n + 1) + sgn * math.sqrt(n)) ** 2 - dec4**2
            assert R**2 == pytest.approx(target, rel=1e-12)
            assert R.real == 0.0 or R.imag == 0.0


def test_rabi_closure_thresholds():
    # inner transitions close at Gamma = 4g(sqrt(n+1)-sqrt(n)), outer at
    # 4g(sqrt(n+1)+sqrt(n)); realness boundary of the square root
    g = 1.0
    for n in (1, 3):
        for kind, scale in (("inner", math.sqrt(n + 1) - math.sqrt(n)),
                            ("outer", math.sqrt(n + 1) + math.sqrt(n))):
            edge = 4.0 * g * scale
            below = SystemParams(g=g, gamma_a=0.0, gamma_sigma=0.0, P_sigma=edge * 0.99)
            above = SystemParams(g=g, gamma_a=0.0, gamma_sigma=0.0, P_sigma=edge * 1.01)
            assert getattr(ref.rabi_frequencies(below, n), kind).real > 0.0
            assert getattr(ref.rabi_frequencies(above, n), kind).real == 0.0


# ---------------------------------------------------------------------------
# per-rung coefficients
# ---------------------------------------------------------------------------


def test_closed_form_coefficients_identity():
    # on the validity slice the closed-form coefficients equal the 4x4 solve;
    # the n = 0 rung is degenerate (inner = outer) so only the pair sum is
    # defined there
    p = SystemParams(g=1.0, gamma_a=0.05, gamma_sigma=0.0, P_sigma=3.7)
    T = ap.poissonian_statistics(20.0)
    for n in range(1, 51):
        cc = ref.correlator_coefficients(p, T, n, "emitter")
        ci, co = ref.emitter_coefficients_closed_form(p, T, n)
        assert abs(cc.C_inner - ci) < 1e-10
        assert abs(cc.C_outer - co) < 1e-10
    cc0 = ref.correlator_coefficients(p, T, 0, "emitter")
    ci0, co0 = ref.emitter_coefficients_closed_form(p, T, 0)
    assert abs((cc0.C_inner + cc0.C_outer) - (ci0 + co0)) < 1e-10


def test_rung_widths_in_strong_coupling():
    p = SystemParams(P_sigma=7.0, gamma_phi=0.2, **BASE)
    width = (3.0 * p.Gamma_sigma + p.gamma_phi) / 2.0
    for n in (20, 28, 40):
        cc = ref.correlator_coefficients(p, ap.poissonian_statistics(29.0), n, "emitter")
        if cc.R_inner.real > 0.0 and cc.R_outer.real > 0.0:
            assert cc.gamma_inner == pytest.approx(width, rel=1e-12)
            assert cc.gamma_outer == pytest.approx(width, rel=1e-12)


def test_weight_normalization_identity():
    for channel in ("emitter", "cavity"):
        dec = spectra.rung_decomposition(LASING, ap.poissonian_statistics(29.0), channel)
        n_c = np.sum(dec.n_c)
        total = float(np.sum(dec.weights.real)) / n_c + np.sum(dec.elastic).real / n_c
        assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("tuning", [{}, {"delta": 0.7, "gamma_phi": 0.3}])
def test_rung_populations_sum_to_slice_record(tuning):
    # the rung readouts sum to n_sigma (emitter) and n_a (cavity) of the
    # reconstructed record, which is what the line weights are divided by
    p = SystemParams(P_sigma=6.1, **BASE, **tuning)
    for T in (ap.poissonian_statistics(28.0), ap.cothermal_distribution(ap.CothermalState(28.0, 14.0))):
        sl = ref.density_slices_from_statistics(p, T)
        for channel, n_c in (("emitter", sl.n_sigma), ("cavity", sl.n_a)):
            dec = spectra.rung_decomposition(p, T, channel)
            assert np.sum(dec.n_c) == pytest.approx(n_c, rel=1e-10)


def test_rung_slices_of_unit_statistics():
    # unit statistics at rung n: the closed-form slices
    p = SystemParams(P_sigma=3.0, g=1.0, gamma_a=0.05, gamma_sigma=0.2)
    ka, G, P, gs = kappa_a(p), p.Gamma_sigma, p.P_sigma, p.gamma_sigma
    n = np.array([0.0, 1.0, 17.0])
    p0_n1, p1_n, qi_n1 = spectra._rung_slices(p, n, np.ones(3), np.ones(3))
    denom = 2.0 * ka * (n + 1.0) + G
    common = ka * (n + 1.0) * (P + gs) / G
    assert np.allclose(p0_n1, (common + gs) / denom, rtol=1e-15, atol=0.0)
    assert np.allclose(p1_n, (common + P) / denom, rtol=1e-15, atol=0.0)
    assert np.allclose(qi_n1, -ka * np.sqrt(n + 1.0) / 2.0 * (P - gs) / denom, rtol=1e-15, atol=0.0)


def test_semiclassical_emitter_closes_at_a_huge_photon_number():
    # gamma_a = 1e-9 puts the semiclassical field at n_a = 1.4e9 photons
    p = SystemParams(g=1.0, gamma_a=1e-9, gamma_sigma=0.2, P_sigma=3.0, delta=0.5)
    assert ap.semiclassical(p).n_a > 1e9
    res = spectra.semiclassical_mollow(p, np.linspace(-5.0, 5.0, 11))
    assert sum(ln.L for ln in res.lines) + res.elastic_weight == pytest.approx(1.0, abs=1e-6)


def test_semiclassical_refuses_a_cavity_pump_and_rung_sum_an_undamped_emitter():
    # neither the mean field nor the slices carry a cavity pump, at any
    # detuning and on either channel; the slices need Gamma_sigma > 0
    w = np.linspace(-5.0, 5.0, 11)
    for delta in (0.0, 0.5):
        pumped = SystemParams(g=1.0, gamma_a=0.05, gamma_sigma=0.2, P_sigma=3.0, P_a=0.01, delta=delta)
        for channel in ("emitter", "cavity"):
            with pytest.raises(ValueError, match="P_a = 0"):
                spectra.semiclassical_mollow(pumped, w, channel)
    undamped = SystemParams(g=1.0, gamma_a=0.05)
    with pytest.raises(ValueError, match="gamma_sigma"):
        spectra.approx_spectrum(undamped, ap.poissonian_statistics(5.0), "emitter", w)


# ---------------------------------------------------------------------------
# elastic weights
# ---------------------------------------------------------------------------


def test_elastic_weight_matches_inhomogeneous_route():
    p = SystemParams(g=1.0, gamma_a=0.05, gamma_sigma=0.02, P_sigma=3.7)
    T = ap.poissonian_statistics(15.0)
    for channel in ("emitter", "cavity"):
        dec = spectra.rung_decomposition(p, T, channel)
        assert ref.elastic_weight(p, T, channel) == pytest.approx(
            np.sum(dec.elastic).real, rel=1e-9
        )


def test_cavity_elastic_weight_positive():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = SystemParams(
            g=1.0,
            gamma_a=float(rng.uniform(0.0, 0.3)),
            gamma_sigma=float(rng.uniform(0.0, 0.5)),
            P_sigma=float(rng.uniform(0.05, 20.0)),
            gamma_phi=float(rng.uniform(0.0, 2.0)),
            delta=float(rng.uniform(-2.0, 2.0)),
        )
        T = ap.poissonian_statistics(float(rng.uniform(0.5, 40.0)))
        assert ref.elastic_weight(p, T, "cavity") > 0.0


def test_emitter_elastic_sign_flip():
    # for gamma_sigma = 0 the sign flips exactly at P = sqrt(2) g
    def esig(P):
        p = SystemParams(g=1.0, gamma_a=0.05, gamma_sigma=0.0, P_sigma=float(P))
        return ref.elastic_weight(p, ap.poissonian_statistics(10.0), "emitter")

    root = brentq(esig, 0.5, 3.0, xtol=1e-10)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert esig(1.0) < 0.0 < esig(2.0)


def test_lasing_elastic_weight_matches_semiclassical_delta():
    T = ap.poissonian_statistics(28.85)
    sl = ref.density_slices_from_statistics(LASING, T)
    e_sigma = ref.elastic_weight(LASING, T, "emitter")
    n_sigma = sl.n_sigma
    delta_sc = spectra.semiclassical_mollow(LASING, np.array([0.0])).elastic_weight
    assert e_sigma / n_sigma == pytest.approx(delta_sc, rel=0.10)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_low_pump_doublet():
    p = SystemParams(P_sigma=0.05, **BASE)
    T = ap.poissonian_statistics(0.3, n_cut=30)
    w = np.linspace(-2.5, 2.5, 1001)
    res = spectra.approx_spectrum(p, T, "emitter", w)
    r0 = ref.linear_rabi(p).real
    i = np.argmax(res.values * (w > 0.2))
    assert abs(w[i] - r0) < 0.02


def test_lasing_triplet_side_positions():
    T = ap.poissonian_statistics(28.85)
    w = np.linspace(-25.0, 25.0, 4001)
    res = spectra.approx_spectrum(LASING, T, "emitter", w)
    obs = ref.observed_splitting(res)
    assert obs.resolvable
    assert obs.peak_position == pytest.approx(2.0 * math.sqrt(28.85) * LASING.g, rel=0.08)


def test_incoherent_normalization_on_grid():
    # incoherent part integrates to 1 - Re(E)/n_c within 1e-3 over the
    # +-10 g max(1, sqrt(n_a)) window (line-sum antiderivative, no grid bias)
    p = SystemParams(g=1.0, gamma_a=0.02, gamma_sigma=0.005, P_sigma=3.0)
    n_a = ap.semiclassical(p).n_a
    T = ap.poissonian_statistics(n_a)
    res = spectra.approx_spectrum(p, T, "cavity", np.array([0.0]))
    span = 10.0 * p.g * max(1.0, math.sqrt(n_a))
    assert lineshape.integrate_lines(res.lines, -span, span) == pytest.approx(
        1.0 - res.elastic_weight, abs=1e-3
    )


def test_exact_vs_approx_side_peaks():
    # Mollow side peaks of the approximate emitter spectrum within 5% of the
    # exact engine at the lasing point
    ss = exact.steady_state(LASING, n_max=150)
    w = np.linspace(-22.0, 22.0, 4001)
    se = exact.spectrum(ss, channel="emitter", omega=w)
    sa = spectra.approx_spectrum(LASING, ss.photon_distribution, "emitter", w)
    pe = ref.observed_splitting(se).peak_position
    pa = ref.observed_splitting(sa).peak_position
    assert pa == pytest.approx(pe, rel=0.05)


@pytest.mark.parametrize(
    "gamma_a, P, rel",
    [(0.03, 3.0, 1e-2), (0.01, 7.0, 1e-2), (0.003, 3.0, 1e-3), (0.003, 7.0, 1e-3)],
)
def test_exact_lasing_triplet_side_peak_is_the_incoherent_mollow_splitting(gamma_a, P, rel):
    # the paper's lasing regime: a Mollow triplet in the emitter spectrum,
    # whose side peak converges on the semiclassical splitting R as gamma_a
    # falls.  The broad part (lines at least gamma_a / 10 wide, without the
    # quasi-elastic line) is read on 20,001 points over [0.3 R, 1.7 R].
    # Measured peak / R - 1 at gamma_sigma 0.00334: gamma_a 0.03, P 3:
    # -0.62%; 0.01, P 7: -0.056%; 0.003, P 3: -0.056%; 0.003, P 7: -0.007%
    p = SystemParams(g=1.0, gamma_a=gamma_a, gamma_sigma=0.00334, P_sigma=P)
    broad = [ln for ln in exact.spectral_lines(exact.steady_state(p), "emitter") if ln.gamma >= gamma_a / 10.0]
    R = ref.incoherent_mollow_splitting(p).real
    w = np.linspace(0.3 * R, 1.7 * R, 20001)
    peak = w[np.argmax(lineshape.evaluate_lines(broad, w))]
    assert peak == pytest.approx(R, rel=rel)


def _side_peak_fwhm(S: np.ndarray, w: np.ndarray) -> float:
    """Width of the run of ``w`` around the maximum of S where S holds at least half of it."""
    i = int(np.argmax(S))
    above = S >= S[i] / 2.0
    return float(w[i + np.argmin(above[i:]) - 1] - w[i - np.argmin(above[i::-1]) + 1])


@pytest.mark.parametrize(
    "gamma_a, P",
    [pytest.param(0.01, 3.0, id="3.0"), pytest.param(0.01, 7.0, id="7.0"),
     (0.03, 3.0), (0.03, 7.0), (0.003, 3.0), (0.003, 7.0)],
)
def test_rung_sum_emitter_reproduces_the_exact_lasing_triplet(gamma_a, P):
    # the paper's approximation hierarchy at resonance, across the
    # good-cavity lasing window (n_a 49 to 1,160): the rung-sum (approx)
    # route against the exact lines, both on their broad part (lines at
    # least gamma_a / 10 wide).  Measured on this grid (steps of 0.005),
    # side-peak FWHM exact / approx at P 3 and 7: gamma_a 0.03, 5.815 /
    # 5.745 and 12.235 / 12.160; 0.01, 5.635 / 5.615 and 11.365 / 11.335;
    # 0.003, 5.580 / 5.575 and 11.135 / 11.125.  L1 of the difference at
    # P 7: 0.0060, 0.0035 and 0.0018
    p = SystemParams(g=1.0, gamma_a=gamma_a, gamma_sigma=0.00334, P_sigma=P)
    ss = exact.steady_state(p)
    w = np.linspace(-100.0, 100.0, 40001)
    S = []
    for lines in (exact.spectral_lines(ss, "emitter"),
                  spectra.approx_spectrum(p, ss.photon_distribution, "emitter", w[:1]).lines):
        S.append(lineshape.evaluate_lines([ln for ln in lines if ln.gamma >= p.gamma_a / 10.0], w))
    side = w >= 10.0  # clear of the central line: the side peaks sit at 14 to 68
    fwhm_exact, fwhm_approx = (_side_peak_fwhm(s[side], w[side]) for s in S)
    assert fwhm_approx == pytest.approx(fwhm_exact, rel=0.02)
    if P == 7.0:
        assert np.trapezoid(np.abs(S[0] - S[1]), w) <= 0.01


def test_detuning_breaks_triplet_symmetry():
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.01, P_sigma=7.0, delta=1.0)
    T = ap.poissonian_statistics(25.0)
    res = spectra.approx_spectrum(p, T, "emitter", np.linspace(-25, 25, 101))
    assert ref.side_weight_visibility(res.lines, 2.0) > 0.05
    # resonance stays symmetric even with dephasing
    p0 = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.01, P_sigma=7.0, gamma_phi=0.5)
    res0 = spectra.approx_spectrum(p0, T, "emitter", np.linspace(-25, 25, 101))
    assert ref.side_weight_visibility(res0.lines, 2.0) < 1e-8


# ---------------------------------------------------------------------------
# semiclassical closed forms
# ---------------------------------------------------------------------------


def test_incoherent_mollow_splitting_value():
    # sqrt((2P - Gamma) kappa/2 - ((Gamma+phi)/4)^2) = sqrt(79) at this point
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0, P_sigma=4.0)
    assert ref.incoherent_mollow_splitting(p) == pytest.approx(math.sqrt(79.0))


def test_lasing_linewidth_value():
    assert spectra.lasing_linewidth(LASING) == pytest.approx(0.2 * 0.1 / 4.9, rel=1e-12)
    assert spectra.lasing_linewidth(LASING) == pytest.approx(4.08e-3, rel=1e-2)


@pytest.mark.parametrize(
    "gamma_a, P, gamma_phi", [(0.1, 3.0, 0.0), (0.1, 7.0, 0.0), (0.1, 3.0, 0.3), (0.1, 7.0, 0.3), (0.01, 7.0, 0.0)]
)
def test_resonant_semiclassical_emitter_is_the_closed_form_triplet(gamma_a, P, gamma_phi):
    # the pumped emitter driven by the mean field g sqrt(n_a) is the
    # closed-form triplet with its quartic denominator (measured <= 3e-15 of
    # max S, and the delta weight to 5e-15)
    p = SystemParams(g=1.0, gamma_a=gamma_a, gamma_sigma=0.00334, P_sigma=P, gamma_phi=gamma_phi)
    w = np.linspace(-20.0, 20.0, 2001)
    sm = spectra.semiclassical_mollow(p, w)
    values, delta_weight = ref.resonant_lasing_triplet(p, w)
    assert np.max(np.abs(sm.values - values)) <= 1e-12 * np.max(values)
    assert sm.elastic_weight == pytest.approx(delta_weight, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("P", [3.0, 7.0])
def test_semiclassical_emitter_is_continuous_at_resonance(P):
    # one route at every detuning: delta = +-1e-12 moves the grid by
    # measured 1.5e-13 (P 3) and 9e-14 (P 7) of its maximum
    w = np.linspace(-20.0, 20.0, 2001)
    at = spectra.semiclassical_mollow(SystemParams(P_sigma=P, **BASE), w)
    for delta in (1e-12, -1e-12):
        near = spectra.semiclassical_mollow(SystemParams(P_sigma=P, delta=delta, **BASE), w)
        assert np.max(np.abs(near.values - at.values)) <= 1e-12 * np.max(at.values)
        assert near.elastic_weight == pytest.approx(at.elastic_weight, rel=1e-9)


@pytest.mark.parametrize("delta, gamma_phi", [(0.5, 0.0), (1.0, 0.0), (0.5, 0.1)])
def test_detuned_semiclassical_laser_against_the_exact_lines(delta, gamma_phi):
    # off resonance the mean field lases at the pulled frequency omega_L,
    # where both channels put their narrow line.  Against the narrowest exact
    # emitter line of weight > 1e-3 and the heaviest exact cavity line at
    # gamma_a 0.1, P 7: the delta weight is measured 0.5-0.8% low, the
    # cavity line 2.5% short of the exact shift (a line at omega = 0 misses
    # it by 3.5 of its widths at delta 1)
    p = SystemParams(P_sigma=7.0, delta=delta, gamma_phi=gamma_phi, **BASE)
    ss = exact.steady_state(p)
    narrow = min((ln for ln in exact.spectral_lines(ss, "emitter") if ln.L > 1e-3), key=lambda ln: ln.gamma)
    main = max(exact.spectral_lines(ss, "cavity"), key=lambda ln: ln.L)
    w = np.linspace(-20.0, 20.0, 11)
    emitter = spectra.semiclassical_mollow(p, w)
    cavity = spectra.semiclassical_mollow(p, w, channel="cavity")
    assert emitter.elastic_weight == pytest.approx(narrow.L, rel=0.02)
    assert emitter.meta["omega_L"] == cavity.lines[0].omega == spectra.laser_frequency(p)
    assert cavity.lines[0].omega == pytest.approx(main.omega, rel=0.05)


def test_resonant_semiclassical_cavity_line_sits_at_zero():
    # the pulled frequency is +0.0 at resonance, so the sidecar writes 0.0
    res = spectra.semiclassical_mollow(LASING, np.array([0.0]), channel="cavity")
    assert math.copysign(1.0, res.lines[0].omega) == 1.0 and res.lines[0].omega == 0.0


def test_semiclassical_mollow_structure():
    # three lines: a central one of FWHM Gamma_sigma + gamma_phi, and two
    # side lines of FWHM (3 Gamma_sigma + gamma_phi) / 2 whose peak lies
    # within half that width of the pump-driven Mollow splitting
    w = np.linspace(-25.0, 25.0, 3001)
    for p in (LASING, SystemParams(P_sigma=7.0, gamma_phi=0.3, **BASE)):
        sm = spectra.semiclassical_mollow(p, w)
        central, *sides = sorted(sm.lines, key=lambda ln: abs(ln.omega))
        width = p.Gamma_sigma + p.gamma_phi
        assert abs(central.omega) < 1e-12 and central.gamma == pytest.approx(width, rel=1e-12)
        side_fwhm = (3.0 * p.Gamma_sigma + p.gamma_phi) / 2.0
        assert [ln.gamma for ln in sides] == pytest.approx([side_fwhm] * 2, rel=1e-12)
        obs = ref.observed_splitting(sm)
        assert abs(obs.peak_position - ref.incoherent_mollow_splitting(p).real) < side_fwhm / 2.0


def test_exact_quasi_elastic_line_carries_the_semiclassical_delta():
    # the exact model has no delta: the semiclassical delta of the emitter is
    # its narrowest line, whose weight grows smoothly with the pump (measured
    # 0.0610, 0.0807, 0.0970, 0.1232 against the delta's 0.0644, 0.0817,
    # 0.0971, 0.1228: at most 5.3% apart, at P 3)
    weights = []
    for P in (3.0, 4.0, 5.0, 7.0):
        p = SystemParams(P_sigma=P, **BASE)
        lines = exact.spectral_lines(exact.steady_state(p), channel="emitter")
        narrow = min((ln for ln in lines if ln.L > 1e-3), key=lambda ln: ln.gamma)
        delta = spectra.semiclassical_mollow(p, np.array([0.0])).elastic_weight
        assert abs(narrow.omega) < 1e-6 and narrow.gamma < p.gamma_a
        assert narrow.L == pytest.approx(delta, rel=0.1)
        weights.append(narrow.L)
    assert np.all(np.diff(weights) > 0.0)


def test_semiclassical_mollow_cavity_line():
    w = np.linspace(-0.05, 0.05, 2001)
    res = spectra.semiclassical_mollow(LASING, w, channel="cavity")
    # the quasi-elastic line is a line of unit weight, rasterized into values
    assert res.elastic_weight == 0.0
    assert len(res.lines) == 1 and res.lines[0].L == 1
    assert res.lines[0].gamma == pytest.approx(spectra.lasing_linewidth(LASING))
    assert res.meta["gamma_L"] == pytest.approx(4.08e-3, rel=1e-2)


def test_semiclassical_emitter_below_threshold_is_the_undriven_line():
    # below threshold the closed-form delta weight 2P/(Gamma + phi + kappa)
    # - Gamma/kappa goes negative; the mean field holds no photon there, and
    # the emitter is undriven: one line of FWHM Gamma_sigma + gamma_phi at
    # -delta and no delta weight
    for tuning in ({}, {"delta": 0.5, "gamma_phi": 0.2}):
        p = SystemParams(P_sigma=0.001, **BASE, **tuning)
        assert ref.resonant_lasing_triplet(replace(p, delta=0.0), [0.0])[1] < 0.0
        res = spectra.semiclassical_mollow(p, np.array([0.0]))
        assert res.meta["n_a"] == 0.0 and res.elastic_weight == 0.0
        assert res.meta["n_c"] == pytest.approx(p.P_sigma / p.Gamma_sigma, rel=1e-14)
        (line,) = res.lines
        assert line.omega == -p.delta and line.gamma == pytest.approx(p.Gamma_sigma + p.gamma_phi, rel=1e-14)
        assert (line.L, line.K) == (1.0, 0.0)


def test_coherent_mapping_shares_positions_and_widths():
    # Omega_L -> sqrt(n_a) g, gamma_sigma -> Gamma_sigma: same side positions
    # (rung form) and widths, different weights
    n_a = ap.semiclassical(LASING).n_a
    drive = LaserDriveParams(
        omega_L=math.sqrt(n_a) * LASING.g, gamma_sigma=LASING.Gamma_sigma
    )
    mapped = ref.resonant_lines(drive, np.array([0.0]))
    side = max(mapped.lines, key=lambda ln: ln.omega)
    rung = ref.rabi_frequencies(LASING, n_a)
    # large-n outer Rabi equals the mapped drive splitting up to ~1/(4 n_a)
    # (the +2 in (sqrt(n+1)+sqrt(n))^2 = 4n + 2 - ...)
    assert side.omega == pytest.approx(rung.outer.real, rel=1.0 / (2.0 * n_a))
    assert side.gamma == pytest.approx(1.5 * LASING.Gamma_sigma, rel=1e-12)
    central = min(mapped.lines, key=lambda ln: abs(ln.omega))
    assert central.gamma == pytest.approx(LASING.Gamma_sigma, rel=1e-12)
    # weights differ between the two kinds of triplet
    sm = spectra.semiclassical_mollow(LASING, np.array([0.0]))
    assert abs(sm.elastic_weight - mapped.elastic_weight) > 0.01


# ---------------------------------------------------------------------------
# peak-position families and observed splitting
# ---------------------------------------------------------------------------


def test_peak_position_families():
    grid = np.linspace(0.0, 10.0, 401)
    pumped = ref.peak_positions_vs_decoherence([1, 2], grid, family="pumped")
    spont = ref.peak_positions_vs_decoherence([1, 2], grid, family="spontaneous")
    # n = 0 line common to both families
    p0 = ref.peak_positions_vs_decoherence([0], grid, family="pumped")
    s0 = ref.peak_positions_vs_decoherence([0], grid, family="spontaneous")
    for a, b in zip(p0, s0):
        assert a["omega_outer"] == pytest.approx(b["omega_outer"], abs=1e-12)
    # pumped inner closes at 4g(sqrt(n+1)-sqrt(n)), outer at 4g(sqrt(n+1)+sqrt(n))
    for n in (1, 2):
        inner_edge = 4.0 * (math.sqrt(n + 1) - math.sqrt(n))
        outer_edge = 4.0 * (math.sqrt(n + 1) + math.sqrt(n))
        rows = [r for r in pumped if r["n"] == n]
        for r in rows:
            assert (r["omega_inner"] > 0.0) == (r["Gamma"] < inner_edge)
            assert (r["omega_outer"] > 0.0) == (r["Gamma"] < outer_edge)
        # the spontaneous inner branch survives longer than the pumped one
        srows = [r for r in spont if r["n"] == n]
        for r, s in zip(rows, srows):
            if s["Gamma"] > inner_edge and s["Gamma"] < 4.0 * math.sqrt(n):
                assert s["omega_inner"] > 0.0 and r["omega_inner"] == 0.0


def test_observed_splitting_single_lorentzian():
    w = np.linspace(-5.0, 5.0, 801)
    vals = 1.0 / (1.0 + w**2)
    res = SpectrumResult(channel="emitter", omega=w, values=vals)
    with pytest.raises(NotResolvableError):
        ref.observed_splitting(res)


def test_splitting_becomes_unresolvable_with_dephasing():
    w = np.linspace(-40.0, 40.0, 4001)
    found = []
    for gp in (0.0, 30.0):
        p = SystemParams(P_sigma=7.0, gamma_phi=gp, **BASE)
        sm = spectra.semiclassical_mollow(p, w)
        try:
            obs = ref.observed_splitting(sm)
            found.append(obs.resolvable)
        except NotResolvableError:
            found.append(False)
        # splitting itself still open at gamma_phi = 30
        assert ref.incoherent_mollow_splitting(p).real > 0.0
    assert found == [True, False]


def test_detuned_semiclassical_emitter_is_asymmetric():
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.01, P_sigma=7.0, delta=1.0)
    w = np.linspace(-25.0, 25.0, 301)
    res = spectra.semiclassical_mollow(p, w)
    assert res.method == "semiclassical"
    assert ref.side_weight_visibility(res.lines, 2.0) > 0.05


def test_unknown_channel_is_refused():
    p = SystemParams(P_sigma=1.0, **BASE)
    ss = exact.steady_state(p, n_max=8)
    T = ss.photon_distribution
    for call in (lambda: exact.regression_sector(ss, "photon"),
                 lambda: spectra.rung_decomposition(p, T, "photon"),
                 lambda: ref.elastic_weight(p, T, "photon"),
                 lambda: spectra.semiclassical_mollow(p, np.zeros(3), channel="photon")):
        with pytest.raises(ValueError, match="unknown channel 'photon'"):
            call()
