import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jclaser import exact
from jclaser.errors import NoSteadyStateError
from jclaser.params import LaserDriveParams, SystemParams, _manifold, g_eff, kappa_a, kappa_sigma

rates = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def test_validation():
    with pytest.raises(ValueError):
        SystemParams(g=0.0)
    with pytest.raises(ValueError):
        SystemParams(g=1.0, gamma_a=-0.1)
    with pytest.raises(ValueError):
        SystemParams(g=1.0, delta=math.inf)


def test_non_finite_rates_are_refused():
    with pytest.raises(ValueError, match="gamma_a must be finite"):
        SystemParams(gamma_a=math.nan)
    with pytest.raises(ValueError, match="delta must be finite"):
        LaserDriveParams(omega_L=1.0, delta=math.inf)


def test_signed_gamma_a_allowed():
    # the record takes a cavity pump above the cavity loss, gamma_a - P_a < 0;
    # the exact route then refuses the steady state by its reason
    p = SystemParams(g=1.0, gamma_a=0.1, P_a=0.5)
    assert (p.gamma_a, p.P_a) == (0.1, 0.5)
    with pytest.raises(NoSteadyStateError, match="net gain exceeds loss"):
        exact.steady_state(p)


def test_effective_rates_example():
    # Gamma_T = 1 + 0 + (2*1-1)*0.1 = 1.1; C_eff = 4 / (0.1 * 1.1)
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0, P_sigma=1.0)
    assert _manifold(p, 1)[0] == pytest.approx(1.1, abs=0.0)
    assert g_eff(p, 1) == pytest.approx(1.0)
    assert 1.0 / _manifold(p, 1)[2] == pytest.approx(4.0 / (0.1 * 1.1), rel=1e-14)


def test_g_eff_resonance_and_detuned_limits():
    p = SystemParams(g=1.0, gamma_a=0.2, P_sigma=0.5, delta=0.0)
    for n in (1, 2, 7):
        assert g_eff(p, n) == p.g
    far = SystemParams(g=1.0, gamma_a=0.2, P_sigma=0.5, delta=1e9)
    assert g_eff(far, 1) < 1e-6


def test_c_eff_infinite_for_lossless_cavity():
    p = SystemParams(g=1.0, gamma_a=0.0, P_sigma=1.0)
    assert _manifold(p, 3)[2] == 0.0  # C_eff = 1/0


def test_kappa_examples():
    # kappa_sigma = 4 g^2 / gamma_a at resonance
    assert kappa_sigma(SystemParams(g=1.0, gamma_a=0.1)) == pytest.approx(40.0)
    # kappa_a = 4 g^2 / (Gamma_sigma + gamma_phi) with Gamma_sigma = 7
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.0, P_sigma=7.0)
    assert kappa_a(p) == pytest.approx(4.0 / 7.0, rel=1e-14)
    assert (kappa_sigma(p), kappa_a(p)) == (pytest.approx(40.0), pytest.approx(4.0 / 7.0))


def test_kappa_vanishes_at_infinite_detuning():
    p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=1.0, delta=1e12)
    ks, ka = kappa_sigma(p), kappa_a(p)
    assert ks < 1e-10 and ka < 1e-10


def test_fermi_golden_rule_oracle_for_kappa_sigma():
    # Purcell transfer: two-state toy (emitter excited <-> one photon, photon
    # decays at gamma_a); adiabatic elimination gives 4 g^2 / gamma_a.
    g, ga = 0.31, 4.7  # overdamped so the rate picture applies
    p = SystemParams(g=g, gamma_a=ga)
    rate = 4.0 * g**2 / ga
    assert kappa_sigma(p) == pytest.approx(rate, rel=1e-14)


@given(
    ga=st.floats(1e-3, 10.0), gs=rates, P=rates, gp=rates,
    dl=st.floats(-20.0, 20.0), s=st.floats(1e-3, 1e3),
)
@settings(max_examples=60, deadline=None)
def test_rescaling_invariance(ga, gs, P, gp, dl, s):
    # dimensionless outputs are unchanged when every rate and g scale together
    p1 = SystemParams(g=1.0, gamma_a=ga, gamma_sigma=gs, P_sigma=P, gamma_phi=gp, delta=dl)
    p2 = SystemParams(
        g=s, gamma_a=s * ga, gamma_sigma=s * gs, P_sigma=s * P, gamma_phi=s * gp, delta=s * dl
    )
    for n in (1, 3):
        assert g_eff(p2, n) / p2.g == pytest.approx(g_eff(p1, n) / p1.g, rel=1e-12)
        assert 1.0 / _manifold(p2, n)[2] == pytest.approx(1.0 / _manifold(p1, n)[2], rel=1e-12)
    assert kappa_sigma(p2) / p2.g == pytest.approx(kappa_sigma(p1) / p1.g, rel=1e-12)


@given(ga=st.floats(1e-6, 10.0), gs=rates, P=rates, gp=rates)
@settings(max_examples=60, deadline=None)
def test_gamma_T_strictly_increasing(ga, gs, P, gp):
    p = SystemParams(g=1.0, gamma_a=ga, gamma_sigma=gs, P_sigma=P, gamma_phi=gp)
    vals = [_manifold(p, n)[0] for n in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_g_eff_monotone_in_decoherence_off_resonance():
    # dephasing compensates detuning: wider manifolds couple more strongly
    p_lo = SystemParams(g=1.0, gamma_a=0.1, P_sigma=0.5, gamma_phi=0.0, delta=3.0)
    p_hi = SystemParams(g=1.0, gamma_a=0.1, P_sigma=0.5, gamma_phi=5.0, delta=3.0)
    assert g_eff(p_hi, 1) > g_eff(p_lo, 1)
    assert g_eff(p_lo, 5) > g_eff(p_lo, 1)  # Gamma_T grows with n
