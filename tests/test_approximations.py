import numpy as np
import pytest

from jclaser import approximations as ap
from jclaser import moments, spectra
from jclaser.params import SystemParams, kappa_sigma

BASE = dict(g=1.0, gamma_sigma=0.00334)


def test_linear_models_agree_at_weak_pump():
    p = SystemParams(gamma_a=0.1, P_sigma=1e-5 * 0.00334, **BASE)
    lin = ap.linear_models(p)
    bos, tjc = lin["bosonic"], lin["truncated_jc"]
    assert bos.n_a == pytest.approx(tjc.n_a, rel=1e-3)
    assert bos.n_a == pytest.approx(bos.C1 * p.P_sigma, rel=1e-3)


def test_bosonic_divergence_pumps():
    # roots of x^2 + x (kappa + gamma_a + gamma_phi) + kappa gamma_a = 0,
    # x = gamma_sigma - P; brute-force polynomial oracle
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0)
    pm, pp = ap.bosonic_divergence_pumps(p)
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
    assert ap.g2_zero_pump(p) == pytest.approx(2.0 * ks / (3.0 * (ks + p.gamma_a)), rel=1e-12)
    # lossless cavity limit: 2/3
    assert ap.g2_zero_pump(SystemParams(g=1.0, gamma_a=1e-9, gamma_sigma=0.0)) == pytest.approx(
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

    target = ap.g2_zero_pump(p0)
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
    assert sc.C2 == pytest.approx(5.0)
    assert sc.P_at_max == pytest.approx(20.0)
    assert sc.P_max == pytest.approx(40.0)
    assert sc.max_n_a == pytest.approx(50.0)


def test_semiclassical_zero_at_unit_emitter_feeding():
    # n_a ~ F_a (1 - F_sigma) vanishes when the emitter feeding saturates
    ks = 40.0
    P = ks - 0.0  # F_sigma = 1 at gamma_sigma = gamma_phi = 0
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0, P_sigma=P)
    sc = ap.semiclassical(p)
    assert sc.F_sigma == pytest.approx(1.0)
    assert sc.n_a == pytest.approx(0.0, abs=1e-12)


def test_semiclassical_matches_exact_in_window():
    p = SystemParams(gamma_a=0.1, P_sigma=4.0, **BASE)
    obs = moments.observables_from_moments(p, moments.solve_moments(p))
    sc = ap.semiclassical(p)
    assert sc.n_a == pytest.approx(obs.n_a, rel=0.15)
    assert abs(sc.n_sigma - obs.n_sigma) < 0.05


def test_statistics_roots_cross_checks():
    # Poissonian-ansatz route and the g2 = 1 root are the same quadratic;
    # the literal thermal closed form is the g2 = 2 root
    for P in (0.01, 0.5, 4.0, 60.0):
        p = SystemParams(gamma_a=0.23, P_sigma=P, gamma_phi=0.05, **BASE)
        assert ap.poissonian_ansatz_root(p) == pytest.approx(
            ap.statistics_root(p, 1.0), rel=1e-10
        )
        assert ap.thermal_na(p).n_a == pytest.approx(ap.statistics_root(p, 2.0), rel=1e-10)


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
    from jclaser import exact

    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=1.0, P_sigma=0.5)
    th = ap.thermal_na(p)
    assert th.exact_limit is not None
    assert th.exact_limit[0] == pytest.approx(1.0, rel=1e-12)
    assert th.exact_limit[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
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
    ct = ap.cothermal(p)
    assert ct.g2 == pytest.approx(2.0, abs=0.02)
    assert ct.n_a == pytest.approx(ap.thermal_na(p).n_a, rel=0.02)


def test_cothermal_poissonian_limit():
    p = SystemParams(gamma_a=0.1, P_sigma=7.0, **BASE)
    ct = ap.cothermal(p)
    assert ct.n_th / ct.n_a < 0.01
    assert ct.g2 == pytest.approx(1.0, abs=0.01)


def test_cothermal_moment_identities():
    # Laguerre identities: N1 = n_a, N2 = 2 n_a^2 - n_coh^2 exactly
    st = ap.CothermalState(n_a=3.7, n_coh=2.2)
    assert st.moment(1) == pytest.approx(3.7, rel=1e-14)
    assert st.moment(2) == pytest.approx(2.0 * 3.7**2 - 2.2**2, rel=1e-14)
    T = st.photon_distribution(200)
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
        T = ap.CothermalState(n_a=n_a, n_coh=n_coh).photon_distribution()
        assert T.sum() == pytest.approx(1.0, abs=1e-10)
        assert float(np.arange(len(T)) @ T) == pytest.approx(n_a, rel=1e-9)
    # a nearly Poissonian field (n_th = 1e-6) needs no longer ladder than the
    # Poissonian one
    T = ap.CothermalState(n_a=n_a, n_coh=n_a - 1e-6).photon_distribution()
    assert len(T) <= len(spectra.poissonian_statistics(n_a))


def test_cothermal_tracks_exact_g2():
    for ga in (0.1, 1.0, 10.0):
        for P in np.logspace(-2, 2, 7):
            p = SystemParams(gamma_a=ga, P_sigma=float(P), **BASE)
            obs = moments.precise_observables(p, moments.solve_moments(p).n_max)
            if not obs.g2_defined:
                continue
            assert abs(ap.cothermal(p).g2 - obs.g2) <= 0.2


def test_cothermal_out_of_numerical_reach():
    # gamma_a = 0.01 g: the cothermal route must complete on its own
    for P in (0.1, 5.0, 50.0, 300.0):
        p = SystemParams(gamma_a=0.01, P_sigma=P, **BASE)
        ct = ap.cothermal(p)
        assert ct.n_a >= 0.0 and ct.n_coh >= 0.0
        assert ct.residual < 1e-9


def test_mandel_q_peaks_in_quench_window():
    p0 = SystemParams(gamma_a=0.1, **BASE)
    pumps = np.logspace(-1, 2.3, 40)
    q = []
    for P in pumps:
        ct = ap.cothermal(SystemParams(gamma_a=0.1, P_sigma=float(P), **BASE))
        q.append(ct.n_a * (ct.g2 - 1.0))
    i = int(np.argmax(q))
    sc = ap.semiclassical(SystemParams(gamma_a=0.1, P_sigma=float(pumps[i]), **BASE))
    assert 0.2 * sc.P_at_max <= pumps[i] <= 1.5 * sc.P_max
    assert q[i] > q[0] and q[i] > q[-1]


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


def test_classifier_examples():
    assert ap.classify_regime(SystemParams(gamma_a=0.1, P_sigma=7.0, **BASE)).label == "Lasing"
    assert (
        ap.classify_regime(SystemParams(gamma_a=0.1, P_sigma=1e-4 * 0.00334, **BASE)).label
        == "Linear"
    )
    p = SystemParams(gamma_a=0.1, P_sigma=80.0, **BASE)  # 2 kappa_sigma
    assert ap.classify_regime(p).label == "Thermal"


def test_classifier_partitions_axis():
    seen = []
    for P in np.logspace(-6, 3, 120):
        lab = ap.classify_regime(SystemParams(gamma_a=0.1, P_sigma=float(P), **BASE)).label
        if not seen or seen[-1] != lab:
            seen.append(lab)
    assert seen == ["Linear", "Quantum", "Lasing", "Quenching", "Thermal"]


def test_lasing_window_flag_reported_separately():
    lab = ap.classify_regime(SystemParams(gamma_a=0.1, P_sigma=7.0, **BASE))
    assert lab.lasing_window_ok
    lab2 = ap.classify_regime(SystemParams(gamma_a=0.5, P_sigma=7.0, **BASE))
    assert lab2.label in ("Lasing", "Quenching") and not lab2.lasing_window_ok
