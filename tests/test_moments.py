import math

import numpy as np
import pytest

from jclaser.errors import NoSteadyStateError
from jclaser.params import SystemParams
import moment_reference as moments
from moment_reference import UnphysicalResultError

BASE = dict(g=1.0, gamma_a=0.1, gamma_sigma=0.00334)


def test_vacuum_without_pump():
    p = SystemParams(g=1.0, gamma_a=0.5, gamma_sigma=1.0, P_sigma=0.0)
    mom = moments.solve_moments(p)
    assert mom.M[0] == 1.0
    assert np.all(np.abs(mom.M[1:]) < 1e-300)
    obs = moments.observables_from_moments(p, mom)
    assert obs.n_a == 0.0 and not obs.g2_defined


def test_thermal_limit_lossless_cavity():
    # gamma_a = 0, P = gamma/2: n_a = 1, g2 = 2 (exact thermal field)
    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=1.0, P_sigma=0.5)
    mom = moments.solve_moments(p)
    obs = moments.observables_from_moments(p, mom)
    assert obs.n_a == pytest.approx(1.0, rel=1e-12)
    assert obs.g2 == pytest.approx(2.0, rel=1e-12)
    # full moment ladder matches n! nbar^n
    for n in range(1, 8):
        assert mom.N_a(n) == pytest.approx(math.factorial(n), rel=1e-10)


def test_no_steady_state_raises():
    with pytest.raises(NoSteadyStateError):
        moments.solve_moments(SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=1.0, P_sigma=1.0))


def test_linear_regime_slope():
    # n_a ~= C1 P at weak pump, against the independent linear-model slope
    from approximations_reference import linear_slope_C1

    p = SystemParams(P_sigma=0.001, **BASE)
    obs = moments.observables_from_moments(p, moments.solve_moments(p))
    C1 = linear_slope_C1(p)
    assert obs.n_a == pytest.approx(C1 * p.P_sigma, rel=0.01)


def test_backward_ratio_agrees_with_banded():
    # both routes solve the same truncated recurrence; compare where the
    # formulation is well conditioned (small n_a)
    for P in (0.001, 0.05, 0.5):
        p = SystemParams(P_sigma=P, **BASE)
        mom = moments.solve_moments(p)
        na_ratio = moments.solve_moments_backward_ratio(p, mom.n_max)
        assert na_ratio == pytest.approx(mom.n_a, rel=1e-10)


def test_recurrence_residuals():
    p = SystemParams(P_sigma=0.7, **BASE)
    mom = moments.solve_moments(p)
    # the banded solution satisfies the scaled recurrence to round-off
    for n in range(1, min(mom.n_max - 1, 40)):
        A, B, C = moments.recurrence_coefficients(p, n)
        resid = (
            C / (n * mom.scale) * mom.M[n - 1]
            - B * mom.M[n]
            - A * (n + 1) * mom.scale * mom.M[n + 1]
        )
        scale = abs(B * mom.M[n]) + abs(C / (n * mom.scale) * mom.M[n - 1]) + 1e-300
        assert abs(resid) / scale < 1e-10


def test_field_correlator_relations():
    # N_sigma and N_as follow from N_a by the closed relations; check the
    # rate-balance identity they imply: n_sigma Gamma_sigma + gamma_a n_a = P
    for P in (0.01, 1.0, 20.0):
        p = SystemParams(P_sigma=P, **BASE)
        mom = moments.solve_moments(p)
        obs = moments.observables_from_moments(p, mom)
        assert obs.n_sigma * p.Gamma_sigma + p.gamma_a * obs.n_a == pytest.approx(
            P, rel=1e-12
        )
        assert mom.N_sigma(1) == pytest.approx(obs.n_sigma, rel=1e-9)
        assert mom.N_as(1).imag == pytest.approx(p.gamma_a / (2 * p.g) * obs.n_a, rel=1e-12)


def test_scaled_moments_decay_beyond_peak():
    p = SystemParams(P_sigma=5.0, **BASE)
    mom = moments.solve_moments(p)
    logm = moments._log_abs_moments(mom)
    peak = int(np.argmax(logm))
    tail = logm[peak:]
    assert np.all(np.diff(tail) < 0.0)


def test_precise_observables_match_float_at_moderate_occupation():
    p = SystemParams(P_sigma=0.2, **BASE)
    mom = moments.solve_moments(p)
    obs = moments.observables_from_moments(p, mom)
    pre = moments.precise_observables(p, mom.n_max)
    assert pre.n_a == pytest.approx(obs.n_a, rel=1e-9)
    assert pre.g2 == pytest.approx(obs.g2, rel=1e-8)


def test_zero_pump_g2_limit_matches_closed_form():
    # evaluated at P = 1e-8 max(gamma_sigma, g) against the closed form
    from approximations_reference import g2_zero_pump

    for ga in (0.05, 0.5, 5.0):
        p0 = SystemParams(g=1.0, gamma_a=ga, gamma_sigma=0.00334)
        p = SystemParams(g=1.0, gamma_a=ga, gamma_sigma=0.00334, P_sigma=1e-8)
        obs = moments.observables_from_moments(p, moments.solve_moments(p, n_max=24))
        assert obs.g2 == pytest.approx(g2_zero_pump(p0), rel=1e-4)


# ---------------------------------------------------------------------------
# pump series (perturbative route)
# ---------------------------------------------------------------------------


def test_series_first_order_is_linear_slope():
    from approximations_reference import linear_slope_C1

    p = SystemParams(g=1.0, gamma_a=10.0, gamma_sigma=0.7, gamma_phi=0.3, delta=0.4)
    ser = moments.perturbative_series(p, n_max=6, t_max=4)
    assert ser.f[1, 0] == pytest.approx(linear_slope_C1(p), rel=1e-10)


def test_series_beta0_vanishes():
    p = SystemParams(g=1.0, gamma_a=10.0, gamma_sigma=1.0)
    ser = moments.perturbative_series(p, n_max=8, t_max=3)
    assert np.all(ser.beta[0, :] == 0.0)
    assert np.all(ser.f[0, :] == 0.0)


def test_series_resummation_weak_coupling():
    # first order reproduces the full solve to 2% up to P = g at gamma_a = 10 g;
    # the series has poles at -gamma_sigma, so the emitter decay must dominate
    # the pump range for a one-term truncation to stay inside 2%
    gs = 150.0
    ser = moments.perturbative_series(
        SystemParams(g=1.0, gamma_a=10.0, gamma_sigma=gs), n_max=8, t_max=1
    )
    for P in (0.1, 0.5, 1.0):
        p = SystemParams(g=1.0, gamma_a=10.0, gamma_sigma=gs, P_sigma=P)
        na = moments.solve_moments(p).n_a
        assert ser.n_a_series(P) == pytest.approx(na, rel=0.02)


def test_series_requires_positive_rates():
    with pytest.raises(ValueError):
        moments.perturbative_series(SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=1.0), 4, 2)
    with pytest.raises(ValueError):
        moments.perturbative_series(SystemParams(g=1.0, gamma_a=1.0, gamma_sigma=0.0), 4, 2)


def test_truncation_cap_raises():
    from jclaser.errors import TruncationNotConvergedError

    p = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_sigma=50.0)
    with pytest.raises(TruncationNotConvergedError):
        moments.solve_moments(p, n_max_cap=64)


def test_cross_correlators_against_liouvillian_traces():
    # the closed relations for N_sigma[n] and the cross correlator follow
    # from the moment equations; validate them against operator traces of
    # the full steady-state density matrix, including detuning and dephasing
    from liouvillian_oracle import dense_rho, operators

    from jclaser import exact

    p = SystemParams(P_sigma=0.9, gamma_phi=0.25, delta=0.6, **BASE)
    mom = moments.solve_moments(p)
    ss = exact.steady_state(p, n_max=mom.n_max)
    a, sig = operators(ss.space)
    a, sig = np.asarray(a.todense()), np.asarray(sig.todense())
    rho = dense_rho(ss)
    for n in (1, 2, 3):
        an = np.linalg.matrix_power(a, n - 1)
        ns_op = an.conj().T @ an @ sig.conj().T @ sig
        n_sigma_n = np.trace(rho @ ns_op).real
        assert mom.N_sigma(n) == pytest.approx(n_sigma_n, rel=1e-8)
        an2 = np.linalg.matrix_power(a, n)
        cross_op = an2.conj().T @ np.linalg.matrix_power(a, n - 1) @ sig
        cross = np.trace(rho @ cross_op)
        assert mom.N_as(n) == pytest.approx(cross, rel=1e-8)


def test_moment_positivity_across_regimes():
    for P in (1e-3, 0.1, 2.0, 30.0, 300.0):
        p = SystemParams(P_sigma=P, **BASE)
        mom = moments.solve_moments(p)
        assert mom.M[0] == 1.0
        assert np.all(mom.M >= -1e-300)
        for n in range(1, 6):
            assert mom.N_sigma(n) >= 0.0


@pytest.mark.parametrize("P, n_max", [(3.0, 914), (7.0, 2084)])
def test_unphysical_moments_refused(P, n_max):
    # 40 digits and a float64 banded solve both give n_a ~ -1.01 here,
    # against 343.71 at P = 7
    p = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_sigma=P)
    with pytest.raises(UnphysicalResultError):
        moments.solve_moments(p)
    with pytest.raises(UnphysicalResultError):
        moments.solve_moments(p, n_max=n_max)
    with pytest.raises(UnphysicalResultError):
        moments.precise_observables(p, n_max)
    mom = moments._solve_fixed(p, n_max, moments._guess_scale(p))
    with pytest.raises(UnphysicalResultError):
        moments.observables_from_moments(p, mom)
