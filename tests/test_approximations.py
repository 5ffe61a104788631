import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jclaser import approximations as ap
from jclaser import exact
from jclaser.errors import NoPhysicalRootError
from jclaser.params import SystemParams, kappa_sigma, recurrence_coefficients
import moment_reference as moments
from approximations_reference import (
    bosonic_divergence_pumps,
    cothermal,
    cothermal_distribution,
    cothermal_residual,
    g2_zero_pump,
    linear_slope_C1,
    moment,
    n_th,
    poissonian_statistics,
)

BASE = dict(g=1.0, gamma_sigma=0.00334)


def test_linear_models_agree_at_weak_pump():
    p = SystemParams(gamma_a=0.1, P_sigma=1e-5 * 0.00334, **BASE)
    lin = ap.linear_models(p)
    bos, tjc = lin["bosonic"], lin["truncated_jc"]
    assert bos.n_a == pytest.approx(tjc.n_a, rel=1e-3)
    assert bos.n_a == pytest.approx(linear_slope_C1(p) * p.P_sigma, rel=1e-3)


def test_bosonic_divergence_pumps():
    # roots of x^2 + x (kappa + gamma_a + gamma_phi) + kappa gamma_a = 0,
    # x = gamma_sigma - P; brute-force polynomial oracle
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0)
    pm, pp = bosonic_divergence_pumps(p)
    ks = kappa_sigma(p)
    roots = np.roots([1.0, ks + p.gamma_a + p.gamma_phi, ks * p.gamma_a])
    expected = sorted(p.gamma_sigma - roots)
    assert pm == pytest.approx(expected[0], rel=1e-12)
    assert pp == pytest.approx(expected[1], rel=1e-12)
    assert pm == pytest.approx(0.1000, rel=5e-4)
    assert pp == pytest.approx(40.00, rel=5e-4)


def test_bosonic_negative_between_divergences():
    p = SystemParams(gamma_a=0.1, P_sigma=5.0, **BASE)
    bos = ap.linear_models(p)["bosonic"]
    assert bos.n_a < 0.0 and bos.n_sigma < 0.0  # reported, not an error


def test_high_pump_tail():
    # both variants approach kappa_sigma / P
    p = SystemParams(gamma_a=0.1, P_sigma=1e5, **BASE)
    ks = kappa_sigma(p)
    for variant in ("bosonic", "truncated_jc"):
        assert ap.linear_models(p)[variant].n_a == pytest.approx(ks / p.P_sigma, rel=1e-3)


def test_g2_zero_pump_closed_forms():
    # gamma_sigma = gamma_phi = 0: 2 kappa / (3 (kappa + gamma_a))
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0)
    ks = kappa_sigma(p)
    assert g2_zero_pump(p) == pytest.approx(2.0 * ks / (3.0 * (ks + p.gamma_a)), rel=1e-12)
    # lossless cavity limit: 2/3
    assert g2_zero_pump(SystemParams(g=1.0, gamma_a=1e-9, gamma_sigma=0.0)) == pytest.approx(
        2.0 / 3.0, rel=1e-6
    )


def test_g2_zero_pump_two_photon_truncation_oracle():
    # oracle: recurrence truncated at two photons, solved directly for
    # N_a[1], N_a[2] at a small pump; checked at the next order too
    p0 = SystemParams(g=1.0, gamma_a=0.7, gamma_sigma=0.31, gamma_phi=0.11)
    P = 1e-9

    def g2_truncated(n_photons):
        p = SystemParams(
            g=1.0, gamma_a=0.7, gamma_sigma=0.31, gamma_phi=0.11, P_sigma=P
        )
        mom = moments.solve_moments(p, n_max=n_photons)
        return mom.N_a(2) / mom.n_a ** 2

    target = g2_zero_pump(p0)
    assert g2_truncated(2) == pytest.approx(target, rel=1e-6)
    assert g2_truncated(3) == pytest.approx(target, rel=1e-6)


def test_g2_zero_pump_weak_coupling_limit():
    # kappa -> 0 limit against the exact solver at g = 1e-3 gamma_a
    ga, gs, gp = 1.0, 0.23, 0.41
    limit = 2.0 * gs * (ga + gs + gp) / ((ga + gs) * (3.0 * ga + gs + gp))
    p = SystemParams(g=1e-3 * ga, gamma_a=ga, gamma_sigma=gs, gamma_phi=gp, P_sigma=1e-8)
    obs = moments.observables_from_moments(p, moments.solve_moments(p, n_max=16))
    assert obs.g2 == pytest.approx(limit, rel=0.01)


def test_semiclassical_example_values():
    # direct evaluation at g=1, gamma_a=0.1, gamma_sigma=gamma_phi=0, P=4
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0, P_sigma=4.0)
    sc = ap.semiclassical(p)
    assert sc.n_a == pytest.approx(18.0, rel=1e-12)
    assert sc.n_sigma == pytest.approx(0.55, rel=1e-12)
    # the pump of the largest n_a, P 20, and the quenching pump, P 40, are
    # the regime edges above the lasing regime
    b = ap.regime_boundaries(p)
    assert b["lasing_quenching"] == pytest.approx(20.0, rel=1e-12)
    assert b["quenching_thermal"] == pytest.approx(40.0, rel=1e-12)
    # the largest n_a, 50, is reached at P 20
    pumps = np.linspace(0.1, 45.0, 450)
    n_a = [ap.semiclassical(replace(p, P_sigma=float(P))).n_a for P in pumps]
    assert pumps[int(np.argmax(n_a))] == pytest.approx(20.0)
    assert max(n_a) == pytest.approx(50.0, rel=1e-12)


def test_semiclassical_zero_at_unit_emitter_feeding():
    # n_a ~ F_a (1 - F_sigma) vanishes when the emitter feeding saturates
    ks = 40.0
    P = ks - 0.0  # F_sigma = 1 at gamma_sigma = gamma_phi = 0
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0, P_sigma=P)
    assert ap.semiclassical(p).n_a == pytest.approx(0.0, abs=1e-12)


def test_semiclassical_rate_balance_below_threshold():
    # where n_a is clamped to 0, n_sigma must still satisfy
    # P_sigma = gamma_a n_a + Gamma_sigma n_sigma (P 1e3 is past the quench)
    for P in (0.0, 1e-3, 1e3):
        p = SystemParams(gamma_a=0.1, P_sigma=P, **BASE)
        sc = ap.semiclassical(p)
        assert sc.n_a == 0.0
        assert p.gamma_a * sc.n_a + p.Gamma_sigma * sc.n_sigma == pytest.approx(P, rel=1e-12, abs=1e-12)


def test_semiclassical_matches_exact_in_window():
    p = SystemParams(gamma_a=0.1, P_sigma=4.0, **BASE)
    obs = moments.observables_from_moments(p, moments.solve_moments(p))
    sc = ap.semiclassical(p)
    assert sc.n_a == pytest.approx(obs.n_a, rel=0.15)
    assert abs(sc.n_sigma - obs.n_sigma) < 0.05


def test_statistics_roots_cross_checks():
    # the thermal n_a is the g2 = 2 root
    for P in (0.01, 0.5, 4.0, 60.0):
        p = SystemParams(gamma_a=0.23, P_sigma=P, gamma_phi=0.05, **BASE)
        assert ap.thermal_na(p).n_a == pytest.approx(ap.statistics_root(p, 2.0), rel=1e-10)


def _thermal_literal_mp(p: SystemParams, dps: int = 60):
    """The paper's closed thermal form, evaluated literally at ``dps`` digits.

    Its terms of order 1/kappa_sigma cancel, so in float64 it loses every
    digit when kappa_sigma is small (3.3e6 photons for the vacuum below).
    """
    from mpmath import mp, mpf, sqrt

    with mp.workdps(dps):
        g, ga, gs, gp, P, dl = (
            mpf(x) for x in (p.g, p.gamma_a, p.gamma_sigma, p.gamma_phi, p.P_sigma, p.delta)
        )
        G = gs + P
        ks = 4 * g**2 / (1 + (2 * dl / (G + gp + ga)) ** 2) / ga
        bracket = 1 + (G + ga + gp) / ks - 2 * P / (G + ga) + ga / G
        root = sqrt(16 * P * ga / G / (G + ga) + bracket**2)
        return (
            (G + ga) * root
            - G * ((G + gp) / ks + 2 * gs / G - 1)
            - ga * ((2 * G + gp) / ks + 2)
            - ga**2 / G * (G / ks + 1)
        ) / (8 * ga)


@pytest.mark.parametrize(
    "rates",
    [
        dict(gamma_a=0.1, gamma_sigma=0.00334, P_sigma=300.0),
        dict(gamma_a=89.0, gamma_sigma=1e-4, P_sigma=1.83e-6),
        dict(g=1e-12, gamma_a=0.4, gamma_sigma=0.9, P_sigma=0.0),
    ],
)
def test_thermal_na_matches_the_literal_form_in_extended_precision(rates):
    p = SystemParams(**rates)
    n_a = ap.thermal_na(p).n_a
    assert n_a == pytest.approx(float(_thermal_literal_mp(p)), rel=1e-12, abs=1e-30)
    if p.P_sigma == 0.0:
        assert n_a == 0.0


def test_one_writing_of_the_recurrence_coefficients():
    import ast
    import inspect

    from jclaser import params

    assert moments.recurrence_coefficients is params.recurrence_coefficients
    # approximations reads the coefficients from params, not from moments
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(ap))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not any("moments" in name for name in names), names


def test_statistics_root_is_the_first_moment_curve():
    # on an array it equals the scalar calls, and N2 = g2 n_a^2 solves the
    # n = 1 moment equation; at g2 = 0 with b <= 0 (P 7) there is no root
    g2 = np.linspace(0.0, 2.0, 9)
    for P in (1e-3, 7.0):
        p = SystemParams(gamma_a=0.1, P_sigma=P, **BASE)
        n_a = ap.statistics_root(p, g2)
        np.testing.assert_array_equal(n_a, [ap.statistics_root(p, x) for x in g2])
        assert np.isfinite(n_a[0]) == (P < 1.0) and np.all(np.isfinite(n_a[1:]))
        A1, B1, C1 = moments.recurrence_coefficients(p, 1)
        x, n = g2[1:], n_a[1:]
        scale = C1 + np.abs(B1 * n) + A1 * x * n**2
        assert np.all(np.abs(C1 - B1 * n - A1 * x * n**2) <= 1e-14 * scale)


def test_first_moment_root_survives_an_overflowing_discriminant():
    # gamma_phi 1e300 makes B1 ~ 2.5e298, whose square overflows: the thermal
    # root is C1 / B1 ~ 4.0e-299 there, not 0, and no overflow warning leaks
    # (the suite turns warnings into errors)
    p = SystemParams(gamma_a=0.1, P_sigma=7.0, gamma_phi=1e300, **BASE)
    A1, B1, C1 = recurrence_coefficients(p, 1)
    assert B1 * B1 == math.inf
    assert ap.thermal_na(p).n_a == pytest.approx(C1 / B1, rel=1e-15)
    (state,) = ap.cothermal_sweep(p, [7.0])
    assert 0.0 <= state.n_a < 1e-298
    # in range the root is the plain quadratic formula, to the bit
    for P in np.geomspace(1e-4, 1e3, 200):
        q = SystemParams(gamma_a=0.1, P_sigma=float(P), **BASE)
        A1, b, c = recurrence_coefficients(q, 1)
        for g2 in (1.0, 2.0):
            a = A1 * g2
            disc = math.sqrt(b * b + 4.0 * a * c)
            assert ap.statistics_root(q, g2) == ((-b + disc) / (2.0 * a) if b <= 0.0 else 2.0 * c / (b + disc))

def test_thermal_limits():
    # weak pump: agrees with the linear model to first order
    p = SystemParams(gamma_a=0.1, P_sigma=1e-6, **BASE)
    lin = ap.linear_models(p)["bosonic"].n_a
    assert ap.thermal_na(p).n_a == pytest.approx(lin, rel=1e-3)
    # strong pump: kappa_sigma / P tail
    p = SystemParams(gamma_a=0.1, P_sigma=1e5, **BASE)
    assert ap.thermal_na(p).n_a == pytest.approx(kappa_sigma(p) / p.P_sigma, rel=1e-3)


def test_thermal_exact_lossless_pair():
    # gamma_a = P_a = 0, P = gamma/2: nbar_a = 1, nbar_sigma = 1/3, verified
    # against the full Liouvillian at a deep cutoff
    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=1.0, P_sigma=0.5)
    th = ap.thermal_na(p)
    assert th.n_a == pytest.approx(1.0, rel=1e-12)
    assert th.n_sigma == pytest.approx(1.0 / 3.0, rel=1e-12)
    ss = exact.steady_state(p, n_max=60)
    assert ss.n_a == pytest.approx(1.0, rel=1e-8)
    assert ss.n_sigma == pytest.approx(1.0 / 3.0, rel=1e-8)


# ---------------------------------------------------------------------------
# cothermal
# ---------------------------------------------------------------------------


def test_cothermal_thermal_reduction():
    # constraining n_coh = 0 reduces the first equation to the thermal
    # quadratic; the solver should find that root deep in the thermal regime
    p = SystemParams(gamma_a=0.1, P_sigma=300.0, **BASE)
    ct = cothermal(p)
    assert ct.g2 == pytest.approx(2.0, abs=0.02)
    assert ct.n_a == pytest.approx(ap.thermal_na(p).n_a, rel=0.02)


def test_cothermal_poissonian_limit():
    p = SystemParams(gamma_a=0.1, P_sigma=7.0, **BASE)
    ct = cothermal(p)
    assert n_th(ct) / ct.n_a < 0.01
    assert ct.g2 == pytest.approx(1.0, abs=0.01)


def test_cothermal_moment_identities():
    # Laguerre identities: N1 = n_a, N2 = 2 n_a^2 - n_coh^2 exactly
    st = ap.CothermalState(n_a=3.7, n_coh=2.2)
    assert moment(st, 1) == pytest.approx(3.7, rel=1e-14)
    assert moment(st, 2) == pytest.approx(2.0 * 3.7**2 - 2.2**2, rel=1e-14)
    T = cothermal_distribution(st, 200)
    n = np.arange(len(T))
    assert T.sum() == pytest.approx(1.0, abs=1e-10)
    assert float(n @ T) == pytest.approx(3.7, rel=1e-10)
    g2_T = float((n * (n - 1)) @ T) / 3.7**2
    assert g2_T == pytest.approx(st.g2, rel=1e-10)


@pytest.mark.parametrize("n_a", [0.5, 5.0, 40.0, 200.0])
def test_cothermal_distribution_default_cutoff(n_a):
    # the default cutoff keeps the thermal tail: unit sum and mean n_a, from
    # the thermal field (n_coh = 0) to the Poissonian one (n_coh = n_a)
    for n_coh in (0.0, n_a / 2.0, n_a - 1e-6, n_a):
        T = cothermal_distribution(ap.CothermalState(n_a=n_a, n_coh=n_coh))
        assert T.sum() == pytest.approx(1.0, abs=1e-10)
        assert float(np.arange(len(T)) @ T) == pytest.approx(n_a, rel=1e-9)
    # a nearly Poissonian field (n_th = 1e-6) needs no longer ladder than the
    # Poissonian one
    T = cothermal_distribution(ap.CothermalState(n_a=n_a, n_coh=n_a - 1e-6))
    assert len(T) <= len(poissonian_statistics(n_a))


def test_cothermal_tracks_exact_g2():
    for ga in (0.1, 1.0, 10.0):
        for P in np.logspace(-2, 2, 7):
            p = SystemParams(gamma_a=ga, P_sigma=float(P), **BASE)
            obs = moments.precise_observables(p, moments.solve_moments(p).n_max)
            if not obs.g2_defined:
                continue
            assert abs(cothermal(p).g2 - obs.g2) <= 0.2


def test_cothermal_out_of_numerical_reach():
    # gamma_a = 0.01 g: the cothermal route must complete on its own
    for P in (0.1, 5.0, 50.0, 300.0):
        p = SystemParams(gamma_a=0.01, P_sigma=P, **BASE)
        ct = cothermal(p)
        assert ct.n_a >= 0.0 and ct.n_coh >= 0.0
        assert cothermal_residual(p, ct) < 1e-9



# (gamma_a, P_sigma, delta, gamma_phi) -> (n_a, n_coh) from an independent
# route: a damped Newton solve of the n = 1, 2 equations in (n_a, n_coh)
COTHERMAL_PINS = [
    ((0.1, 1e-3, 0.0, 0.0), (0.009585633181858922, 0.010990323004632428)),
    ((0.1, 7.0, 0.0, 0.0), (28.941359298299382, 28.964234565610603)),  # b <= 0 at g2 = 0
    ((0.1, 300.0, 0.0, 0.0), (0.15375431261805145, 0.00774923870211587)),  # g2 near 2
    ((0.01, 300.0, 0.0, 0.0), (3749.961076985176, 3749.0251807193345)),
    ((1.0, 0.5, 1.0, 0.5), (0.276557831841676, 0.31107833447930416)),
    ((10.0, 1e-4, 0.0, 0.0), (9.91132386411818e-06, 1.3925819160040762e-05)),  # antibunched
]


@pytest.mark.parametrize("point, pinned", COTHERMAL_PINS)
def test_cothermal_pinned_roots(point, pinned):
    ga, P, delta, gamma_phi = point
    p = SystemParams(gamma_a=ga, P_sigma=P, delta=delta, gamma_phi=gamma_phi, **BASE)
    ct = cothermal(p)
    assert ct.n_a == pytest.approx(pinned[0], rel=1e-12)
    assert abs(ct.n_coh - pinned[1]) <= 1e-10 * pinned[0]
    assert cothermal_residual(p, ct) <= 1e-10


def _cothermal_or_error(p):
    try:
        return cothermal(p)
    except NoPhysicalRootError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(
    log_gamma_a=st.floats(-3.0, 2.0),
    gamma_sigma=st.floats(0.0, 10.0),
    log_P=st.floats(-5.0, 4.0),
    delta=st.floats(-5.0, 5.0),
    gamma_phi=st.floats(0.0, 2.0),
)
def test_cothermal_scan_grid_finds_every_root(log_gamma_a, gamma_sigma, log_P, delta, gamma_phi):
    # the n = 2 equation falls along a 64 times finer g2 grid, so it has one
    # root, none where f(2) > 0, and the finer grid brackets the same one
    p = SystemParams(g=1.0, gamma_a=10.0**log_gamma_a, gamma_sigma=gamma_sigma,
                     P_sigma=10.0**log_P, delta=delta, gamma_phi=gamma_phi)
    g2 = np.linspace(0.0, 2.0, 4097)
    f = ap._second_moment(ap._moment_coefficients(p), g2[np.isfinite(ap.statistics_root(p, g2))])
    assert f[0] > 0.0 and np.all(np.diff(f) < 0.0)
    coarse = _cothermal_or_error(p)
    assert (coarse is NoPhysicalRootError) == (f[-1] > 0.0)
    with mock.patch.object(ap, "_G2_GRID", g2):
        fine = _cothermal_or_error(p)
    if isinstance(coarse, type):
        assert fine is coarse
        return
    assert fine.n_a == pytest.approx(coarse.n_a, rel=1e-12)
    assert abs(fine.n_coh - coarse.n_coh) <= 1e-10 * coarse.n_a


def test_cothermal_refuses_a_superthermal_field():
    p = SystemParams(g=1.0, gamma_a=0.01576, gamma_sigma=1.916e-4, P_sigma=0.04793, delta=-4.9035)
    assert ap._second_moment(ap._moment_coefficients(p), 2.0) > 0.0
    with pytest.raises(NoPhysicalRootError, match="no root with g2 <= 2"):
        cothermal(p)
    assert exact.steady_state(p).g2 > 2.0  # the exact field is superthermal there


def _same_bits(a, b):
    if isinstance(a, ap.CothermalState):
        return isinstance(b, ap.CothermalState) and all(
            np.float64(getattr(a, f)).tobytes() == np.float64(getattr(b, f)).tobytes()
            for f in ("n_a", "n_coh")
        )
    return type(a) is type(b) and str(a) == str(b)


@settings(max_examples=40, deadline=None)
@given(
    log_gamma_a=st.floats(-3.0, 2.0),
    gamma_sigma=st.floats(0.0, 10.0),
    log_P=st.lists(st.floats(-5.0, 4.0), min_size=1, max_size=6),
    delta=st.floats(-5.0, 5.0),
    gamma_phi=st.floats(0.0, 2.0),
)
def test_cothermal_sweep_is_cothermal_at_each_pump(log_gamma_a, gamma_sigma, log_P, delta, gamma_phi):
    p = SystemParams(g=1.0, gamma_a=10.0**log_gamma_a, gamma_sigma=gamma_sigma, delta=delta,
                     gamma_phi=gamma_phi)
    pumps = [10.0**x for x in log_P]
    for P, got in zip(pumps, ap.cothermal_sweep(p, pumps), strict=True):
        try:
            one = cothermal(replace(p, P_sigma=P))
        except NoPhysicalRootError as exc:
            one = exc
        assert _same_bits(got, one)


def test_cothermal_sweep_refuses_only_the_superthermal_pump():
    # at these rates P 1 has no g2 = 0 root (B1 < 0) and P 0.04793 is the
    # superthermal point of test_cothermal_refuses_a_superthermal_field
    p = SystemParams(g=1.0, gamma_a=0.01576, gamma_sigma=1.916e-4, delta=-4.9035)
    assert recurrence_coefficients(replace(p, P_sigma=1.0), 1)[1] < 0.0
    zero, no_g2_zero_root, superthermal = ap.cothermal_sweep(p, [0.0, 1.0, 0.04793])
    assert zero == ap.CothermalState(n_a=0.0, n_coh=0.0)
    assert _same_bits(no_g2_zero_root, cothermal(replace(p, P_sigma=1.0)))
    # pinned: a scan that kept the rootless g2 = 0 node would bracket [0, 1/32]
    assert no_g2_zero_root.n_a == pytest.approx(19.498806113066326, rel=1e-12)
    assert isinstance(superthermal, NoPhysicalRootError)
    assert "no root with g2 <= 2" in str(superthermal)
    with pytest.raises(ValueError, match="P_a = 0"):
        ap.cothermal_sweep(replace(p, P_a=0.001), [1.0])


def test_cothermal_needs_no_other_rung(monkeypatch):
    def refuse(params):
        raise AssertionError("cothermal called another rung of the ladder")

    monkeypatch.setattr(ap, "semiclassical", refuse)
    monkeypatch.setattr(ap, "thermal_na", refuse)
    for (ga, P, delta, gamma_phi), (n_a, _) in COTHERMAL_PINS:
        p = SystemParams(gamma_a=ga, P_sigma=P, delta=delta, gamma_phi=gamma_phi, **BASE)
        assert cothermal(p).n_a == pytest.approx(n_a, rel=1e-12)


def test_mandel_q_peaks_in_quench_window():
    p0 = SystemParams(gamma_a=0.1, **BASE)
    pumps = np.logspace(-1, 2.3, 40)
    q = []
    for P in pumps:
        ct = cothermal(SystemParams(gamma_a=0.1, P_sigma=float(P), **BASE))
        q.append(ct.n_a * (ct.g2 - 1.0))
    i = int(np.argmax(q))
    b = ap.regime_boundaries(SystemParams(gamma_a=0.1, P_sigma=float(pumps[i]), **BASE))
    assert 0.2 * b["lasing_quenching"] <= pumps[i] <= 1.5 * b["quenching_thermal"]
    assert q[i] > q[0] and q[i] > q[-1]


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


def test_classifier_examples():
    assert ap.classify_regime(SystemParams(gamma_a=0.1, P_sigma=7.0, **BASE)) == "Lasing"
    assert (
        ap.classify_regime(SystemParams(gamma_a=0.1, P_sigma=1e-4 * 0.00334, **BASE))
        == "Linear"
    )
    p = SystemParams(gamma_a=0.1, P_sigma=80.0, **BASE)  # 2 kappa_sigma
    assert ap.classify_regime(p) == "Thermal"


def test_classifier_partitions_axis():
    seen = []
    for P in np.logspace(-6, 3, 120):
        lab = ap.classify_regime(SystemParams(gamma_a=0.1, P_sigma=float(P), **BASE))
        if not seen or seen[-1] != lab:
            seen.append(lab)
    assert seen == ["Linear", "Quantum", "Lasing", "Quenching", "Thermal"]


def test_lasing_window_flag_reported_separately():
    p = SystemParams(gamma_a=0.1, P_sigma=7.0, **BASE)
    assert ap.lasing_window_ok(p)
    p2 = SystemParams(gamma_a=0.5, P_sigma=7.0, **BASE)
    assert ap.classify_regime(p2) in ("Lasing", "Quenching") and not ap.lasing_window_ok(p2)


def test_lossless_cavity_forms():
    # gamma_a = 0: the bosonic model diverges at P_sigma = gamma_sigma, the
    # first-moment root has no cavity loss to balance, and the thermal limit
    # form takes no cavity pump
    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=0.5, P_sigma=0.5)
    bosonic = ap.linear_models(p)["bosonic"]
    assert bosonic.n_a == np.inf and bosonic.n_sigma == np.inf
    with pytest.raises(ValueError, match="needs gamma_a > 0"):
        ap.statistics_root(p, 2.0)
    with pytest.raises(ValueError, match="expects P_a = 0"):
        ap.thermal_na(replace(p, P_a=0.1))


def test_closed_forms_refuse_a_cavity_pump():
    # no closed form carries P_a, so each refuses it rather than answer as
    # if P_a were 0
    p = SystemParams(gamma_a=0.1, P_sigma=0.5, P_a=0.05, **BASE)
    for form in (ap.linear_models, ap.semiclassical, ap.thermal_na):
        with pytest.raises(ValueError, match="P_a = 0"):
            form(p)


def test_poissonian_statistics_of_the_vacuum():
    T = poissonian_statistics(0.0)
    assert len(T) == 38 and T[0] == 1.0 and not np.any(T[1:])


@pytest.mark.parametrize("g", [1e-170, 1e-200])
def test_semiclassical_forms_take_an_underflowing_coupling(g):
    # g^2 underflows, so kappa_sigma is 0 and F_sigma infinite: below threshold
    p = SystemParams(g=g, gamma_a=0.1, gamma_sigma=0.00334, P_sigma=7.0)
    assert kappa_sigma(p) == 0.0
    assert ap.semiclassical(p) == ap.Populations(n_a=0.0, n_sigma=7.0 / 7.00334)
    assert ap._pump_scales(p) == (-0.00334, -3 * 0.00334)
    assert ap.classify_regime(p) == "Thermal"
