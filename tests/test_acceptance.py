"""Acceptance suite: one test per criterion, printed pass/fail per line.

Each criterion runs at its stated tolerance; tolerances are pinned here and
nowhere else.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from jclaser import approximations as ap
from jclaser import coherent, exact, moments, spectra
from jclaser.params import LaserDriveParams, SystemParams
from liouvillian_oracle import full_steady_rho, off_pattern_max

BASE = dict(g=1.0, gamma_a=0.1, gamma_sigma=0.00334)
LASING = SystemParams(P_sigma=7.0, **BASE)


def _report(tag: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag} failed: {detail}"


def test_criterion_1_cross_exact_agreement():
    pumps = np.geomspace(1e-4, 1e3, 50)
    t0 = time.perf_counter()
    worst = 0.0
    for P in pumps:
        p = SystemParams(P_sigma=float(P), **BASE)
        mom = moments.solve_moments(p)
        pre = moments.precise_observables(p, mom.n_max)
        ss = exact.steady_state(p, n_max=mom.n_max)
        worst = max(
            worst,
            abs(ss.n_a / pre.n_a - 1.0),
            abs(ss.n_sigma / pre.n_sigma - 1.0),
            abs(ss.g2 / pre.g2 - 1.0),
        )
    elapsed = time.perf_counter() - t0
    _report(
        "C1 moment-vs-Liouvillian routes",
        worst < 1e-8 and elapsed < 60.0,
        f"worst rel dev {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_identity_suite():
    points = [
        SystemParams(P_sigma=0.05, **BASE),
        SystemParams(P_sigma=7.0, **BASE),
        SystemParams(P_sigma=1.3, gamma_phi=0.4, delta=0.7, **BASE),
        SystemParams(g=1.0, gamma_a=0.8, gamma_sigma=0.1, P_sigma=0.5, P_a=0.2),
    ]
    worst_id, worst_rho, worst_pat, worst_sum, worst_dev = 0.0, 0.0, 0.0, 0.0, 0.0
    for p in points:
        ss = exact.steady_state(p)
        if p.P_a == 0.0:
            resid = abs(ss.n_sigma * p.Gamma_sigma + p.gamma_a * ss.n_a - p.P_sigma)
            worst_id = max(worst_id, resid / max(p.P_sigma, 1e-300))
        worst_rho = max(
            worst_rho, ss.hermiticity_defect(), ss.trace_defect(), max(0.0, -ss.min_eigenvalue())
        )
        # the sector engine stores no off-pattern elements: measure them on
        # the full-Liouvillian solve at the same cutoff
        rho_full = full_steady_rho(p, ss.space.n_max)
        worst_pat = max(worst_pat, off_pattern_max(rho_full))
        worst_dev = max(worst_dev, float(np.max(np.abs(ss.rho - rho_full))))
        for channel in ("cavity", "emitter"):
            lines = exact.spectral_lines(p, channel=channel, ss=ss)
            worst_sum = max(worst_sum, abs(sum(ln.L for ln in lines) - 1.0))
    ok = (
        worst_id < 1e-10
        and worst_rho < 1e-8
        and worst_pat < 1e-12
        and worst_sum < 1e-6
        and worst_dev <= 1e-12
    )
    _report(
        "C2 identity suite",
        ok,
        f"rate-balance {worst_id:.1e}, rho defects {worst_rho:.1e}, "
        f"off-pattern {worst_pat:.1e}, weight sums {worst_sum:.1e}, "
        f"sector vs full rho {worst_dev:.1e}",
    )


def test_criterion_3_limit_reproduction():
    # (a) lossless cavity thermal pair
    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=1.0, P_sigma=0.4)
    obs = moments.observables_from_moments(p, moments.solve_moments(p))
    nbar = 0.4 / 0.6
    ok_a = abs(obs.n_a / nbar - 1.0) < 1e-8 and abs(obs.g2 / 2.0 - 1.0) < 1e-8
    # (b) truncated one-excitation model within 5% at gamma_a = 10 g
    worst_b = 0.0
    for P in np.geomspace(1e-4, 1e3, 30):
        pb = SystemParams(g=1.0, gamma_a=10.0, gamma_sigma=0.00334, P_sigma=float(P))
        na = moments.precise_observables(pb, moments.solve_moments(pb).n_max).n_a
        worst_b = max(worst_b, abs(ap.linear_models(pb)["truncated_jc"].n_a / na - 1.0))
    ok_b = worst_b < 0.05
    # (c) zero-pump correlation limit at P = 1e-8 max(gamma_sigma, g)
    worst_c = 0.0
    for ga in (0.05, 0.5, 5.0):
        p0 = SystemParams(g=1.0, gamma_a=ga, gamma_sigma=0.00334)
        pc = SystemParams(g=1.0, gamma_a=ga, gamma_sigma=0.00334, P_sigma=1e-8)
        g2 = moments.observables_from_moments(pc, moments.solve_moments(pc, n_max=24)).g2
        worst_c = max(worst_c, abs(g2 / ap.g2_zero_pump(p0) - 1.0))
    ok_c = worst_c < 1e-4
    # (d) linear-regime correlation bounded by 2/3 for a dark emitter
    vals = [
        ap.g2_zero_pump(SystemParams(g=1.0, gamma_a=float(ga), gamma_sigma=0.0))
        for ga in np.geomspace(0.01, 10.0, 25)
    ]
    ok_d = all(0.0 <= v <= 2.0 / 3.0 + 1e-9 for v in vals)
    _report(
        "C3 limit reproduction",
        ok_a and ok_b and ok_c and ok_d,
        f"thermal ok={ok_a}, tJC worst {worst_b:.3f}, g2(0) worst {worst_c:.1e}, "
        f"g2 range [{min(vals):.3f},{max(vals):.3f}]",
    )


def test_criterion_4_semiclassical_window():
    worst_na, worst_ns = 0.0, 0.0
    for P in np.linspace(2.0, 10.0, 9):
        p = SystemParams(P_sigma=float(P), **BASE)
        obs = moments.precise_observables(p, moments.solve_moments(p).n_max)
        sc = ap.semiclassical(p)
        worst_na = max(worst_na, abs(sc.n_a / obs.n_a - 1.0))
        worst_ns = max(worst_ns, abs(sc.n_sigma - obs.n_sigma))
    p5 = SystemParams(P_sigma=5.0, **BASE)
    g2_5 = moments.precise_observables(p5, moments.solve_moments(p5).n_max).g2
    ok = worst_na < 0.15 and worst_ns < 0.05 and 0.95 <= g2_5 <= 1.05
    _report(
        "C4 semiclassical window",
        ok,
        f"n_a worst {worst_na:.3f}, n_sigma worst {worst_ns:.4f}, g2(5g) {g2_5:.4f}",
    )


def test_criterion_5_cothermal():
    worst = 0.0
    for ga in (0.1, 1.0, 10.0):
        for P in np.geomspace(1e-4, 1e3, 25):
            p = SystemParams(g=1.0, gamma_a=ga, gamma_sigma=0.00334, P_sigma=float(P))
            obs = moments.precise_observables(p, moments.solve_moments(p).n_max)
            if not obs.g2_defined:
                continue
            worst = max(worst, abs(ap.cothermal(p).g2 - obs.g2))
    # completes standalone where the exact engine is out of reach
    for P in (0.5, 20.0, 200.0):
        ct = ap.cothermal(SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_sigma=P))
        assert ct.residual < 1e-9
    _report("C5 cothermal", worst <= 0.2, f"worst |g2 - exact| {worst:.3f}")


def test_criterion_6_coherent_mollow():
    gs = 1.0
    drive = LaserDriveParams(omega_L=1.5 * gs, gamma_sigma=gs)
    span = 10.0 * (gs + drive.omega_L)
    w = np.linspace(-span, span, 2001)
    closed, _ = coherent.mollow_spectrum_resonant(drive, w)
    numeric = coherent.spectrum_by_propagation(drive, w)
    dev = np.max(np.abs(closed - numeric)) / np.max(closed)
    lw = coherent.coherent_correlator_lines(drive).coherent_weight
    ok_w = abs(lw - 1.0 / 19.0) < 1e-10
    v_axis1, _ = coherent.asymmetry_visibility(
        LaserDriveParams(omega_L=1.5 * gs, gamma_sigma=gs, delta=2.0 * gs)
    )
    v_axis2, _ = coherent.asymmetry_visibility(
        LaserDriveParams(omega_L=1.5 * gs, gamma_sigma=gs, gamma_phi=1.7 * gs)
    )
    v_in, _ = coherent.asymmetry_visibility(
        LaserDriveParams(omega_L=1.5 * gs, gamma_sigma=gs, delta=2.0 * gs, gamma_phi=gs)
    )
    ok_v = v_axis1 < 1e-10 and v_axis2 < 1e-10 and v_in > 1e-3
    _report(
        "C6 coherent Mollow",
        dev < 1e-6 and ok_w and ok_v,
        f"propagation dev {dev:.1e}, L_coh err {abs(lw - 1/19):.1e}, V inside {v_in:.3f}",
    )


def test_criterion_7_incoherent_mollow():
    ss = exact.steady_state(LASING, n_max=150)
    w = np.linspace(-22.0, 22.0, 4401)
    se = exact.spectrum(LASING, channel="emitter", ss=ss, omega=w)
    sa = spectra.approx_spectrum(LASING, ss.photon_distribution, "emitter", w)
    peak_e = spectra.observed_splitting(se).peak_position
    peak_a = spectra.observed_splitting(sa).peak_position
    ok_peaks = abs(peak_a / peak_e - 1.0) < 0.05
    R_O = spectra.incoherent_mollow_splitting(LASING).real
    band = (3.0 * LASING.Gamma_sigma + LASING.gamma_phi) / 4.0
    ok_band = abs(peak_e - R_O) < band

    def esig(P):
        p = SystemParams(g=1.0, gamma_a=0.05, gamma_sigma=0.0, P_sigma=float(P))
        return spectra.elastic_weight(p, spectra.poissonian_statistics(10.0), "emitter")

    root = brentq(esig, 0.5, 3.0, xtol=1e-6)
    ok_flip = abs(root - math.sqrt(2.0)) < 1e-3

    rng = np.random.default_rng(42)
    ok_ea = True
    for _ in range(100):
        p = SystemParams(
            g=1.0,
            gamma_a=float(rng.uniform(0.0, 0.3)),
            gamma_sigma=float(rng.uniform(0.0, 0.5)),
            P_sigma=float(rng.uniform(0.05, 20.0)),
            gamma_phi=float(rng.uniform(0.0, 2.0)),
            delta=float(rng.uniform(-2.0, 2.0)),
        )
        T = spectra.poissonian_statistics(float(rng.uniform(0.5, 40.0)))
        ok_ea = ok_ea and spectra.elastic_weight(p, T, "cavity") > 0.0
    _report(
        "C7 incoherent Mollow",
        ok_peaks and ok_band and ok_flip and ok_ea,
        f"side peaks {peak_e:.2f}/{peak_a:.2f} (dev {abs(peak_a/peak_e-1):.3f}), "
        f"|obs - R_O| {abs(peak_e - R_O):.2f} < {band:.2f}, flip at {root:.4f}, E^a>0 {ok_ea}",
    )


def test_criterion_8_quantum_to_classical_map():
    pumps = np.geomspace(0.005, 7.0, 8)
    rows, failures = exact.transition_map(SystemParams(**BASE), pumps, weight_floor=1e-9)
    assert not failures
    by_pump = {}
    for r in rows:
        by_pump.setdefault(r.P_sigma, []).append(r)
    dom = {P: max(rs, key=lambda r: abs(r.L)) for P, rs in by_pump.items()}
    # (i) the dominant (inner) frequency collapses to the origin
    ok_freq = abs(dom[pumps[0]].omega) > 0.9 and abs(dom[pumps[-1]].omega) < 0.05
    # (ii) the dominant lasing line is narrower than the cavity and follows
    # the line-narrowing estimate within a factor two
    gl = spectra.lasing_linewidth(SystemParams(P_sigma=float(pumps[-1]), **BASE))
    g_dom = dom[pumps[-1]].gamma
    ok_width = g_dom < BASE["gamma_a"] and gl / 2.0 < g_dom < 2.0 * gl
    _report(
        "C8 quantum-to-classical map",
        ok_freq and ok_width,
        f"dominant |omega| {abs(dom[pumps[0]].omega):.3f} -> {abs(dom[pumps[-1]].omega):.1e}, "
        f"width {g_dom:.2e} vs estimate {gl:.2e}",
    )


def test_criterion_9_series_oracle():
    gs = 5.0  # emitter decay scale keeping P <= g inside the series radius
    p0 = SystemParams(g=1.0, gamma_a=10.0, gamma_sigma=gs)
    ser = moments.perturbative_series(p0, n_max=10, t_max=3)
    worst = 0.0
    for P in np.linspace(0.05, 1.0, 12):
        p = SystemParams(g=1.0, gamma_a=10.0, gamma_sigma=gs, P_sigma=float(P))
        na = moments.solve_moments(p).n_a
        worst = max(worst, abs(ser.n_a_series(float(P)) / na - 1.0))
    slope_err = abs(ser.f[1, 0] - ap.linear_slope_C1(p0))
    _report(
        "C9 series oracle",
        worst < 0.02 and slope_err < 1e-10,
        f"resummation worst {worst:.4f}, slope err {slope_err:.1e}",
    )
