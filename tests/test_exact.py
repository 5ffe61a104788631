import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jclaser import approximations as ap
from jclaser import exact, moments
from jclaser.errors import (
    NonDiagonalizableError,
    NoSteadyStateError,
    SolverMemoryError,
    TruncationNotConvergedError,
)
from jclaser.lineshape import evaluate_lines
from jclaser.params import SystemParams
from liouvillian_oracle import full_steady_rho, off_pattern_max

BASE = dict(g=1.0, gamma_a=0.1, gamma_sigma=0.00334)
LASING = SystemParams(P_sigma=7.0, **BASE)


def test_fock_space_index_map():
    space = exact.FockSpace(3)
    assert space.dim == 8
    seen = set()
    for n in range(4):
        for i in (0, 1):
            k = space.index(n, i)
            assert space.state(k) == (n, i)
            seen.add(k)
    assert seen == set(range(8))
    with pytest.raises(IndexError):
        space.index(4, 0)


def test_vacuum_steady_state_without_coupling_or_pump():
    p = SystemParams(g=1e-12, gamma_a=0.4, gamma_sigma=0.9)
    ss = exact.steady_state(p, n_max=4)
    assert ss.n_a == pytest.approx(0.0, abs=1e-12)
    assert ss.rho[0, 0].real == pytest.approx(1.0, rel=1e-12)


def test_liouvillian_preserves_trace():
    rng = np.random.default_rng(7)
    p = SystemParams(P_sigma=0.8, P_a=0.03, gamma_phi=0.2, delta=0.4, **BASE)
    L = exact.build_liouvillian(p, 5)
    dim = exact.FockSpace(5).dim
    for _ in range(4):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = x + x.conj().T
        drho = (L @ rho.reshape(-1)).reshape(dim, dim)
        assert abs(np.trace(drho)) < 1e-12 * np.abs(drho).max()


def test_single_excitation_truncation_matches_linear_model():
    # a one-photon cutoff at vanishing pump reproduces the one-excitation
    # closed form
    P = 1e-9
    p = SystemParams(P_sigma=P, **BASE)
    ss = exact.steady_state(p, n_max=1)
    tjc = ap.linear_models(p)["truncated_jc"]
    assert ss.n_a == pytest.approx(tjc.n_a, rel=1e-8)
    assert ss.n_sigma == pytest.approx(tjc.n_sigma, rel=1e-8)


@pytest.mark.parametrize(
    "p",
    [
        SystemParams(P_sigma=0.05, **BASE),
        SystemParams(P_sigma=7.0, **BASE),
        SystemParams(P_sigma=1.3, gamma_phi=0.4, delta=0.7, **BASE),
        SystemParams(g=1.0, gamma_a=0.8, gamma_sigma=0.1, P_sigma=0.5, P_a=0.2),
    ],
)
def test_steady_state_invariants(p):
    ss = exact.steady_state(p)
    assert ss.hermiticity_defect() < 1e-10
    assert ss.trace_defect() < 1e-10
    assert ss.min_eigenvalue() >= -1e-8
    # the sector engine has no elements off the pattern; the full solve does
    rho = full_steady_rho(p, ss.space.n_max)
    assert off_pattern_max(rho) < 1e-12
    assert np.max(np.abs(ss.rho - rho)) <= 1e-12


@st.composite
def _system(draw):
    gamma_a = draw(st.floats(0.01, 5.0))
    return SystemParams(
        g=1.0,
        gamma_a=gamma_a,
        gamma_sigma=draw(st.floats(0.0, 2.0)),
        P_sigma=draw(st.floats(0.0, 20.0)),
        P_a=draw(st.floats(0.0, 0.9)) * gamma_a,
        gamma_phi=draw(st.floats(0.0, 2.0)),
        delta=draw(st.floats(-3.0, 3.0)),
    )


@settings(max_examples=60, deadline=None)
@given(p=_system(), n_max=st.integers(1, 8))
def test_sector_blocks_match_full_liouvillian(p, n_max):
    L = exact.build_liouvillian(p, n_max).tocsr()
    dim = exact.FockSpace(n_max).dim
    for k in (0, 1):
        G, r, s = exact.sector_generator(p, n_max, k)
        assert np.all(np.abs(np.abs(r // 2 + r % 2 - s // 2 - s % 2) - k) == 0)
        idx = r * dim + s
        ref = L[idx][:, idx].toarray()
        # same terms summed in another order: equal to a few ulps of the scale
        assert np.max(np.abs(G.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))
    ss = exact.steady_state(p, n_max=n_max)
    # roundoff of the LU solve is the only source of negative values here
    assert np.trace(ss.rho).real == pytest.approx(1.0, abs=1e-12)
    assert ss.n_a >= -1e-12
    assert -1e-12 <= ss.n_sigma <= 1.0 + 1e-12


def test_good_cavity_reach():
    # n_a ~ 344 needs n_max ~ 2000: 3e10 coefficients for the full
    # Liouvillian, ~8e3 for the sector; reference from a 200-digit moment sweep
    p = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_sigma=7.0)
    ss = exact.steady_state(p, n_max=2084)
    assert ss.n_a == pytest.approx(343.7109077806, rel=1e-10)
    auto = exact.steady_state(p, n_max_cap=4096)
    assert auto.n_a == pytest.approx(343.7109077806, rel=1e-10)


@pytest.mark.parametrize(
    "exc, expected",
    [
        # (banded LAPACK call, what it does): raise an exception, or report
        # a zero pivot through its info code
        (("zgbtrf", MemoryError()), SolverMemoryError),
        (("zgbtrs", MemoryError()), SolverMemoryError),
        (("zgbtrf", 3), NoSteadyStateError),
    ],
)
def test_solver_failures_named(monkeypatch, exc, expected):
    call, outcome = exc
    real = getattr(exact, call)

    def fail(*a, **k):
        if isinstance(outcome, BaseException):
            raise outcome
        return *real(*a, **k)[:2], outcome

    monkeypatch.setattr(exact, call, fail)
    with pytest.raises(expected):
        exact.steady_state(LASING, n_max=20)


def test_vacuum_cutoff_bounded():
    # closed-form estimates may diverge (the thermal one reads 3.3e6 photons
    # here); the rate balance caps n_a at (P_a + P_sigma) / (gamma_a - P_a) = 0
    p = SystemParams(g=1e-12, gamma_a=0.4, gamma_sigma=0.9, P_sigma=0.0)
    assert ap.thermal_na(p).n_a > 1e6
    assert exact.suggest_n_max(p) < 20
    ss = exact.steady_state(p)
    assert ss.n_a == 0.0 and ss.space.n_max < 64


def test_auto_cutoff_starts_at_most_at_cap(monkeypatch):
    p = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_sigma=7.0)
    assert exact.suggest_n_max(p) > 500
    tried = []
    fixed = exact._steady_state_fixed

    def spy(params, n_max):
        tried.append(n_max)
        return fixed(params, n_max)

    monkeypatch.setattr(exact, "_steady_state_fixed", spy)
    with pytest.raises(TruncationNotConvergedError):
        exact.steady_state(p, n_max_cap=500)
    assert tried == [500]


def test_rate_balance_identity():
    for P in (0.01, 1.0, 12.0):
        p = SystemParams(P_sigma=P, **BASE)
        ss = exact.steady_state(p)
        assert ss.n_sigma * p.Gamma_sigma + p.gamma_a * ss.n_a == pytest.approx(
            P, rel=1e-10
        )


def test_thermal_distribution_lossless_cavity():
    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=1.0, P_sigma=0.4)
    ss = exact.steady_state(p, n_max=60)
    nbar = 0.4 / 0.6
    n = np.arange(20)
    expected = nbar**n / (nbar + 1.0) ** (n + 1)
    assert np.max(np.abs(ss.photon_distribution[:20] - expected)) < 1e-8


def test_cross_agreement_with_moment_route():
    for P in (0.01, 0.7, 7.0):
        p = SystemParams(P_sigma=P, **BASE)
        mom = moments.solve_moments(p)
        pre = moments.precise_observables(p, mom.n_max)
        ss = exact.steady_state(p, n_max=mom.n_max)
        assert ss.n_a == pytest.approx(pre.n_a, rel=1e-8)
        assert ss.n_sigma == pytest.approx(pre.n_sigma, rel=1e-8)
        assert ss.g2 == pytest.approx(pre.g2, rel=1e-8)


def test_no_steady_state_detection():
    with pytest.raises(NoSteadyStateError):
        exact.steady_state(SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=0.5, P_sigma=0.5))
    with pytest.raises(NoSteadyStateError):
        exact.steady_state(SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.5, P_a=0.2))


def test_auto_cutoff_converges():
    p = SystemParams(P_sigma=0.3, **BASE)
    ss = exact.steady_state(p)
    assert ss.photon_distribution[-1] < 1e-12
    ref = exact.steady_state(p, n_max=2 * ss.space.n_max)
    assert ss.n_a == pytest.approx(ref.n_a, rel=1e-7)


# ---------------------------------------------------------------------------
# spectral lines and spectra
# ---------------------------------------------------------------------------


def test_linear_regime_rabi_doublet():
    p = SystemParams(P_sigma=1e-3, **BASE)
    ss = exact.steady_state(p, n_max=12)
    lines = sorted(
        exact.spectral_lines(p, channel="cavity", ss=ss), key=lambda l: -abs(l.L)
    )
    # the doublet's weights are equal to roundoff: order the pair by frequency
    lines[:2] = sorted(lines[:2], key=lambda l: -l.omega)
    R0 = np.sqrt(p.g**2 - ((p.gamma_a - p.gamma_sigma) / 4.0) ** 2)
    assert lines[0].omega == pytest.approx(R0, abs=2e-3)
    assert lines[1].omega == pytest.approx(-R0, abs=2e-3)
    assert lines[0].L + lines[1].L > 0.98


@pytest.mark.parametrize("channel", ["cavity", "emitter"])
def test_line_weights_sum_to_one(channel):
    for P in (0.01, 0.6, 7.0):
        p = SystemParams(P_sigma=P, **BASE)
        ss = exact.steady_state(p)
        lines = exact.spectral_lines(p, channel=channel, ss=ss)
        tol = 1e-8 if P < 1.0 else 1e-6  # condensation region tops out at 1e-6
        assert sum(ln.L for ln in lines) == pytest.approx(1.0, abs=tol)
        assert sum(ln.K for ln in lines) == pytest.approx(0.0, abs=tol)


def test_eigen_vs_resolvent_spectra():
    rng = np.random.default_rng(11)
    p = SystemParams(P_sigma=1.5, gamma_phi=0.1, delta=0.3, **BASE)
    ss = exact.steady_state(p)
    ss_l = exact.truncate_steady_state(ss, exact._populated_cutoff(ss.photon_distribution))
    for channel in ("cavity", "emitter"):
        lines = exact.spectral_lines(p, channel=channel, ss=ss_l)
        w = rng.uniform(-6.0, 6.0, size=32)
        from_lines = evaluate_lines(lines, w)
        from_resolvent = exact.resolvent_spectrum(p, ss_l, channel, w)
        scale = np.max(np.abs(from_lines))
        assert np.max(np.abs(from_lines - from_resolvent)) < 1e-8 * scale


def test_spectrum_normalization_and_triplet():
    from jclaser.lineshape import integrate_lines

    ss = exact.steady_state(LASING, n_max=150)
    w = np.linspace(-60.0, 60.0, 8001)
    res = exact.spectrum(LASING, channel="emitter", ss=ss, omega=w)
    assert np.min(res.values) > -1e-9
    # incoherent normalization: the cavity line set integrates to one within
    # +-10g; the emitter side bands are ~10g wide, so only the full line sum
    # (not a finite window) closes to one there
    cav = exact.spectral_lines(LASING, channel="cavity", ss=ss)
    assert integrate_lines(cav, -10.0, 10.0) == pytest.approx(1.0, abs=1e-3)
    assert sum(ln.L for ln in res.lines) == pytest.approx(1.0, abs=1e-6)
    # sharp quasi-elastic feature at the origin on top of the triplet
    assert res.elastic_weight > 0.05
    narrow = min((ln for ln in res.lines if abs(ln.L) > 0.05), key=lambda l: l.gamma)
    assert narrow.gamma < LASING.gamma_a


def test_vacuum_rabi_doublet_in_spectrum():
    p = SystemParams(P_sigma=0.01, **BASE)
    w = np.linspace(-3.0, 3.0, 1201)
    for channel in ("cavity", "emitter"):
        res = exact.spectrum(p, channel=channel, omega=w)
        i = np.argmax(res.values * (w > 0.2))
        assert abs(w[i] - 1.0) < 0.05


def test_g2_near_one_at_lasing_midpoint():
    b = ap.classify_regime(LASING).boundaries
    mid = np.sqrt(b["quantum_lasing"] * b["lasing_quenching"])
    p = SystemParams(P_sigma=float(mid), **BASE)
    ss = exact.steady_state(p)
    assert abs(ss.g2 - 1.0) <= 0.05


def test_transition_map_structure():
    pumps = np.geomspace(0.005, 7.0, 8)
    rows, failures = exact.transition_map(SystemParams(**BASE), pumps, weight_floor=1e-9)
    assert not failures
    by_pump = {}
    for r in rows:
        by_pump.setdefault(r.P_sigma, []).append(r)
    # linear regime: dominant doublet at +-R0
    low = sorted(by_pump[pumps[0]], key=lambda r: -abs(r.L))[:2]
    assert {round(abs(r.omega), 1) for r in low} == {1.0}
    # negative-weight lines exist somewhere in the map
    assert any(r.L < -1e-6 for r in rows)
    # deep lasing: dominant line collapses to the origin and narrows below
    # the lasing-linewidth estimate within a factor two
    top = max(by_pump[pumps[-1]], key=lambda r: abs(r.L))
    assert abs(top.omega) < 0.05
    gamma_lasing = 2.0 * BASE["g"] ** 2 * BASE["gamma_a"] / pumps[-1] ** 2
    assert top.gamma < BASE["gamma_a"]
    assert gamma_lasing / 2.0 < top.gamma < gamma_lasing * 2.0


def test_transition_map_records_failures():
    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=0.5)
    rows, failures = exact.transition_map(p, np.array([0.1, 0.9]), n_max=30)
    assert len(failures) == 1 and failures[0][0] == 0.9
    assert any(r.P_sigma == 0.1 for r in rows)


def test_unclosed_line_weights_refused():
    # at P = 40 the cavity eigenbasis is too ill-conditioned for the line
    # weights to close to one within 1e-6 (they miss by ~1e-4)
    p = SystemParams(P_sigma=40.0, **BASE)
    with pytest.raises(NonDiagonalizableError, match="line weights"):
        exact.spectral_lines(p, channel="cavity")
    rows, failures = exact.transition_map(SystemParams(**BASE), np.array([1.0, 40.0]))
    assert [P for P, _ in failures] == [40.0]
    assert rows and all(r.P_sigma == 1.0 for r in rows)


def test_spectrum_resolvent_fallback(monkeypatch):
    from jclaser.errors import NonDiagonalizableError

    p = SystemParams(P_sigma=0.05, **BASE)
    ss = exact.steady_state(p, n_max=16)
    w = np.linspace(-2.0, 2.0, 65)
    reference = exact.spectrum(p, channel="cavity", ss=ss, omega=w)

    def boom(*a, **k):
        raise NonDiagonalizableError("forced")

    monkeypatch.setattr(exact, "spectral_lines", boom)
    res = exact.spectrum(p, channel="cavity", ss=ss, omega=w)
    assert res.lines == []
    assert np.allclose(res.values, reference.values, rtol=1e-8)


def test_cross_agreement_with_dephasing_and_detuning():
    # validates the dephasing-rate and detuning conventions: the moment
    # recurrence carries them only through Gamma_T and g_eff, the Liouvillian
    # through the Lindblad and Hamiltonian terms
    for gp, dl in ((0.4, 0.0), (0.0, 0.8), (0.3, -0.6)):
        p = SystemParams(P_sigma=1.1, gamma_phi=gp, delta=dl, **BASE)
        mom = moments.solve_moments(p)
        pre = moments.precise_observables(p, mom.n_max)
        ss = exact.steady_state(p, n_max=mom.n_max)
        assert ss.n_a == pytest.approx(pre.n_a, rel=1e-9)
        assert ss.g2 == pytest.approx(pre.g2, rel=1e-9)
