from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import approximations_reference as ap
from jclaser import exact
from jclaser import lineshape
from jclaser.errors import (
    EmptyChannelError,
    LineFitError,
    NoSteadyStateError,
    SolverMemoryError,
    TruncationNotConvergedError,
    ZeroPivotError,
)
from jclaser.lineshape import evaluate_lines, integrate_lines
from jclaser.params import SystemParams
from liouvillian_oracle import (
    build_liouvillian,
    dense_block,
    dense_rho,
    full_steady_rho,
    min_eigenvalue,
    off_pattern_max,
    operators,
    trace_defect,
)
import moment_reference as moments
from spectra_reference import resolvent_spectrum

BASE = dict(g=1.0, gamma_a=0.1, gamma_sigma=0.00334)
LASING = SystemParams(P_sigma=7.0, **BASE)


def test_fock_space_index_map():
    space = exact.FockSpace(3)
    assert space.dim == 8


def test_vacuum_steady_state_without_coupling_or_pump():
    p = SystemParams(g=1e-12, gamma_a=0.4, gamma_sigma=0.9)
    ss = exact.steady_state(p, n_max=4)
    assert ss.n_a == pytest.approx(0.0, abs=1e-12)
    assert dense_rho(ss)[0, 0].real == pytest.approx(1.0, rel=1e-12)


def test_vacuum_g2_is_undefined():
    # g2 = <a'a'aa>/n_a^2 is 0/0 at zero pump, in the exact and cothermal states
    p = SystemParams(P_sigma=0.0, **BASE)
    ss, ct = exact.steady_state(p), ap.cothermal(p)
    assert ss.n_a == 0.0 and ct.n_a == 0.0
    assert np.isnan(ss.g2) and np.isnan(ct.g2)


def test_liouvillian_preserves_trace():
    rng = np.random.default_rng(7)
    p = SystemParams(P_sigma=0.8, P_a=0.03, gamma_phi=0.2, delta=0.4, **BASE)
    L = build_liouvillian(p, 5)
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
    assert ss.herm_defect < 1e-10
    assert trace_defect(ss) < 1e-10
    assert min_eigenvalue(ss) >= -1e-8
    # the sector engine has no elements off the pattern; the full solve does
    rho = full_steady_rho(p, ss.space.n_max)
    assert off_pattern_max(rho) < 1e-12
    assert np.max(np.abs(dense_rho(ss) - rho)) <= 1e-12


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
    L = build_liouvillian(p, n_max).tocsr()
    dim = exact.FockSpace(n_max).dim
    for k in (0, 1):
        G = exact.sector_generator(p, n_max, k)
        r, s = G.index.r, G.index.s
        assert np.all(np.abs(np.abs(r // 2 + r % 2 - s // 2 - s % 2) - k) == 0)
        idx = r * dim + s
        ref = L[idx][:, idx].toarray()
        # same terms summed in another order: equal to a few ulps of the scale
        assert np.max(np.abs(dense_block(G) - ref)) <= 1e-14 * np.max(np.abs(ref))
    ss = exact.steady_state(p, n_max=n_max)
    # roundoff of the LU solve is the only source of negative values here
    assert np.trace(dense_rho(ss)).real == pytest.approx(1.0, abs=1e-12)
    assert ss.n_a >= -1e-12
    assert -1e-12 <= ss.n_sigma <= 1.0 + 1e-12


@st.composite
def _rates_on_or_off(draw):
    # each rate zero or not, independently, so one cutoff sees several patterns
    rate = lambda: draw(st.sampled_from([0.0, draw(st.floats(0.01, 2.0))]))
    return SystemParams(g=draw(st.floats(0.5, 2.0)), gamma_a=rate(), gamma_sigma=rate(), P_a=rate(),
                        P_sigma=rate(), gamma_phi=rate(), delta=draw(st.sampled_from([0.0, 0.4])))


@settings(max_examples=80, deadline=None)
@given(p=_rates_on_or_off(), n_max=st.integers(1, 3))
def test_cached_sector_index_builds_the_same_blocks(p, n_max):
    band = lambda B: exact._band_storage(B.index, B.data, B.index.kl, B.index.ku)
    # a cache key that left out which rates are on would hand one pattern's
    # index to another at the same cutoff
    for k in (0, 1):
        G = exact.sector_generator(p, n_max, k)
        with mock.patch.object(exact, "_sector_index", exact._sector_index.__wrapped__):
            F = exact.sector_generator(p, n_max, k)
        assert F.index is not G.index
        for a, b in ((G.data, F.data), (G.index.row, F.index.row), (G.index.col, F.index.col),
                     (G.index.r, F.index.r), (G.index.s, F.index.s),
                     (dense_block(G), dense_block(F)), (band(G), band(F))):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sector_index_is_shared_read_only_and_bounded():
    G = exact.sector_generator(LASING, 32, 0)
    assert exact.sector_generator(replace(LASING, P_sigma=3.0), 32, 0).index is G.index
    ix = G.index
    arrays = [ix.r, ix.s, ix.pos, ix.row, ix.col, ix.emitter,
              *ix.occupation, *ix.coupling, *(a for pair in ix.jumps for a in pair)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert 0 < exact._sector_index.cache_info().maxsize < 100


def test_sweep_builds_each_sector_index_once():
    # the auto cutoffs of a good-cavity sweep span 32 -> 512 over its pumps;
    # the cache holds the whole doubling ladder to the default cap plus a
    # k = 1 index, so no index is built twice
    p = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334)

    def sweep(top):
        for P in np.geomspace(1e-3, top, 24):
            exact.steady_state(replace(p, P_sigma=float(P)))

    exact._sector_index.cache_clear()
    sweep(7.0)
    info = exact._sector_index.cache_info()
    assert info.misses == info.currsize == 5
    sweep(30.0)  # reaches n_max 2048
    lasing = replace(p, P_sigma=7.0)
    exact.regression_sector(exact.steady_state(lasing), "cavity")
    assert exact._sector_index.cache_info().misses == 8
    sweep(30.0)
    assert exact._sector_index.cache_info().misses == 8


def test_banded_lu_is_scipys_lapack(monkeypatch):
    # exact loads scipy's LAPACK extension without the scipy.linalg package;
    # with that package imported too, the two give bit for bit the same solves
    import scipy.linalg.lapack as lapack

    import coherent_reference as coherent
    from jclaser.params import LaserDriveParams

    p = SystemParams(P_sigma=6.1, **BASE)
    ss = exact.steady_state(p)
    G = exact.sector_generator(p, ss.space.n_max, 0)
    sec = exact.regression_sector(ss, "cavity")
    omega = np.linspace(-12.0, 12.0, 49)

    def solves():
        pinned = exact._pinned_solves(G.index, G.data[None], [0])[0]
        shifted = resolvent_spectrum(sec, omega)
        return pinned.tobytes(), shifted.tobytes()

    ours = solves()
    monkeypatch.setattr(exact, "zgbtrf", lapack.zgbtrf)
    monkeypatch.setattr(exact, "zgbtrs", lapack.zgbtrs)
    assert solves() == ours
    drive = LaserDriveParams(omega_L=1.5, gamma_sigma=1.0)
    assert np.all(np.isfinite(coherent.spectrum_by_propagation(drive, np.linspace(-5.0, 5.0, 21))))


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
    # the rate balance caps n_a at (P_a + P_sigma) / (gamma_a - P_a) = 0; the
    # thermal root stays exact although kappa_sigma is 1e-23 here
    p = SystemParams(g=1e-12, gamma_a=0.4, gamma_sigma=0.9, P_sigma=0.0)
    assert ap.thermal_na(p).n_a == 0.0
    ss = exact.steady_state(p)
    assert ss.n_a == 0.0 and ss.space.n_max < 64


def _tried_cutoffs(monkeypatch, solves: list | None = None) -> list:
    """Cutoffs of the pinned solves that steady_state makes, one per block
    factored, in order; ``solves`` gets (cutoff, block values, pin, error) of each."""
    tried = []
    pinned = exact._pinned_solves

    def spy(ix, data, pins):
        n_max = len(ix.pos) // 2 - 1
        tried.extend([n_max] * len(data))
        x, errors = pinned(ix, data, pins)
        if solves is not None:
            solves.extend((n_max, row.tobytes(), int(pin), err) for row, pin, err in zip(data, pins, errors))
        return x, errors

    monkeypatch.setattr(exact, "_pinned_solves", spy)
    return tried


def test_auto_cutoff_starts_at_most_at_cap(monkeypatch):
    # n_a ~ 344 fits under a cutoff of 500 but not of 300; either cap is tried
    p = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_sigma=7.0)
    tried = _tried_cutoffs(monkeypatch)
    assert exact.steady_state(p, n_max_cap=500).n_a == pytest.approx(343.7109077806, rel=1e-10)
    assert max(tried) <= 500 and tried[-1] == 500
    tried.clear()
    with pytest.raises(TruncationNotConvergedError):
        exact.steady_state(p, n_max_cap=300)
    assert max(tried) <= 300 and tried[-1] == 300


def test_good_cavity_accepts_without_a_confirming_solve(monkeypatch):
    # the semiclassical n_a 343.7 places the first solve at 512, pinned at
    # rung 344, and the tail test accepts it: no solve below, none at 1024
    tried = _tried_cutoffs(monkeypatch)
    p = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_sigma=7.0)
    ss = exact.steady_state(p)
    assert tried == [512] and ss.space.n_max == 512
    assert ss.n_a == pytest.approx(343.7109077806, rel=1e-10)
    tried.clear()
    exact.steady_state(SystemParams(P_sigma=0.05, **BASE))
    assert tried == [32]


def test_each_pump_gets_one_retry_and_one_re_pin_per_cutoff(monkeypatch):
    # per pump and cutoff: the first solve, at most one retry at the top
    # rung after a singular solve, and at most one re-pin at the peak
    solves = []
    _tried_cutoffs(monkeypatch, solves)

    def stages(params, pumps, n_max=None):
        """(retried, solves) per pump and cutoff of one sweep."""
        solves.clear()
        exact.steady_state_sweep(params, pumps, n_max)
        per_pump: dict = {}  # (cutoff, block values) -> its solves, in order
        for cutoff, block, pin, err in solves:
            per_pump.setdefault((cutoff, block), []).append((pin, err))
        seen = set()
        for (cutoff, _), seq in per_pump.items():
            retried = isinstance(seq[0][1], NoSteadyStateError)
            assert len(seq) <= 2 + retried
            if retried:
                assert seq[1][0] == cutoff
            seen.add((retried, len(seq)))
        return seen

    good = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334)
    # a zero pivot at the vacuum pin
    assert stages(replace(good, P_a=0.0095), [1.0], n_max=32) == {(True, 2)}
    # a fixed cutoff pins the vacuum, far below the lasing peaks
    assert stages(good, [3.0, 7.0], n_max=512) == {(False, 2)}
    # auto mode pins each lasing pump near its semiclassical peak
    assert stages(good, [0.05, 3.0, 7.0]) == {(False, 1)}


def test_a_first_cutoff_placed_too_high_moves_down(monkeypatch):
    # n_a 161.9 with g2 0.9998: the semiclassical estimate places the first
    # solve at 512, whose solution already passes the tail test cut at 256;
    # the pump moves down, and 256 holds it, as on the ladder from 32
    tried = _tried_cutoffs(monkeypatch)
    p = SystemParams(g=1.0, gamma_a=0.04746076783753154, gamma_sigma=0.002480171159893364,
                     P_sigma=20.34225576804326, gamma_phi=0.3015150477830594)
    assert exact._first_window(p, exact.N_MAX_CAP) == (512, 162)
    assert exact.steady_state(p).space.n_max == 256 and tried == [512, 256]


def test_sweep_axes_factor_each_pump_about_once(monkeypatch):
    # the 24-pump good-cavity axis and the 50-pump axis of the README sweep
    # factored 41 and 73 blocks when every pump started at 32 photons
    tried = _tried_cutoffs(monkeypatch)
    exact.steady_state_sweep(SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334), np.geomspace(1e-3, 1.5, 24))
    assert len(tried) <= 25
    tried.clear()
    exact.steady_state_sweep(SystemParams(**BASE), np.geomspace(1e-4, 1e3, 50))
    assert len(tried) <= 55


@settings(max_examples=60, deadline=None)
@given(
    gamma_a=st.floats(1e-3, 2.0),
    gamma_sigma=st.floats(1e-4, 1.0),
    P=st.floats(0.0, 30.0),
    pump_a=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    gamma_phi=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    delta=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
)
@example(gamma_a=0.01, gamma_sigma=0.00334, P=7.0, pump_a=0.0, gamma_phi=0.0, delta=0.0)
@example(gamma_a=0.1, gamma_sigma=0.00334, P=7.0, pump_a=0.0, gamma_phi=0.1, delta=0.5)
# n_a ~ 15,000 passes the default cap: the estimate starts at the cap and is refused there
@example(gamma_a=1e-3, gamma_sigma=0.00334, P=30.0, pump_a=0.0, gamma_phi=0.0, delta=0.0)
# a cavity pump: both start at the vacuum pin, where the LU meets a zero pivot
@example(gamma_a=0.01, gamma_sigma=0.00334, P=1.0, pump_a=0.95, gamma_phi=0.0, delta=0.0)
# the closed form overflows at a huge detuning
@example(gamma_a=0.1, gamma_sigma=0.00334, P=7.0, pump_a=0.0, gamma_phi=0.0, delta=1e200)
# g2 0.9998: narrower than the Poissonian the first cutoff assumes, which lands a rung too high
@example(gamma_a=0.04746076783753154, gamma_sigma=0.002480171159893364, P=20.34225576804326, pump_a=0.0,
         gamma_phi=0.3015150477830594, delta=0.0)
def test_first_window_leaves_every_answer_unchanged(gamma_a, gamma_sigma, P, pump_a, gamma_phi, delta):
    # the semiclassical estimate only places a pump's first solve: auto
    # mode accepts the cutoff that the ladder from 32 photons at the vacuum
    # pin accepts, with the same n_a and g2, or refuses with the same error
    p = SystemParams(g=1.0, gamma_a=gamma_a, gamma_sigma=gamma_sigma, P_sigma=P,
                     P_a=pump_a * gamma_a, gamma_phi=gamma_phi, delta=delta)
    (ss,) = exact.steady_state_sweep(p, [P])
    with mock.patch.object(exact, "_first_window", lambda params, cap: (min(32, cap), 0)):
        (ref,) = exact.steady_state_sweep(p, [P])
    if not isinstance(ref, exact.SteadyState):
        assert type(ss) is type(ref)
        return
    assert isinstance(ss, exact.SteadyState) and ss.space.n_max == ref.space.n_max
    assert ss.n_a == pytest.approx(ref.n_a, rel=1e-12, abs=0.0)
    # g2 is nan in the vacuum (0/0) on both routes
    assert ss.g2 == pytest.approx(ref.g2, rel=1e-12, abs=0.0, nan_ok=True)


def test_tail_estimate_is_exact_on_a_geometric_tail():
    # a geometric distribution continues exactly as the estimate assumes
    r, N = 0.5, 40
    n, far = np.arange(N + 1), np.arange(N + 1, N + 400)
    T, T_far = (1 - r) * r**n, (1 - r) * r**far
    miss1 = np.dot(far, T_far) / np.dot(n, T)
    miss2 = np.dot(far * (far - 1), T_far) / np.dot(n * (n - 1), T)
    assert miss2 > 1.01 * miss1
    assert exact._tail_converged(T, 1.001 * miss2, tail=1.0)
    assert not exact._tail_converged(T, 0.999 * miss2, tail=1.0)  # n passes, n(n-1) does not
    assert not exact._tail_converged(T, 1.0, tail=0.999 * T[-1])


@settings(max_examples=40, deadline=None)
@given(
    gamma_a=st.floats(0.01, 2.0),
    gamma_sigma=st.floats(0.0, 1.0),
    P=st.floats(0.0, 20.0),
    pump_a=st.floats(0.0, 0.9),
    gamma_phi=st.floats(0.0, 2.0),
    delta=st.floats(-3.0, 3.0),
)
# a subnormal detuning makes the vacuum-pin solve non-finite: the top-rung retry takes it
@example(gamma_a=0.0625, gamma_sigma=0.0, P=10.0, pump_a=0.0, gamma_phi=0.0, delta=2.04e-201)
@example(gamma_a=0.03125, gamma_sigma=0.0, P=10.0, pump_a=0.0, gamma_phi=0.0, delta=9.3e-193)
# n_a = 1595 needs n_max 4096, beyond the default cap
@example(gamma_a=0.01, gamma_sigma=0.0, P=8.0, pump_a=0.75, gamma_phi=0.0, delta=0.0)
def test_auto_cutoff_matches_twice_the_cutoff(gamma_a, gamma_sigma, P, pump_a, gamma_phi, delta):
    # the tail estimate stands in for the old solve at twice the cutoff
    p = SystemParams(g=1.0, gamma_a=gamma_a, gamma_sigma=gamma_sigma, P_sigma=P,
                     P_a=pump_a * gamma_a, gamma_phi=gamma_phi, delta=delta)
    rtol = 1e-7
    try:
        ss = exact.steady_state(p, rtol=rtol)
    except TruncationNotConvergedError:
        # a truthful refusal: the solve at the cap is sound, but its tail is too heavy
        T = exact.steady_state(p, n_max=2048).photon_distribution
        assert np.all(np.isfinite(T)) and T.sum() == pytest.approx(1.0, abs=1e-12)
        assert not exact._tail_converged(T, rtol, tail=1e-12)
        return
    ref = exact.steady_state(p, n_max=2 * ss.space.n_max)
    assert ss.n_a == pytest.approx(ref.n_a, rel=rtol)
    # g2 is nan in the vacuum (0/0) at both cutoffs
    assert ss.g2 == pytest.approx(ref.g2, rel=rtol, nan_ok=True)


def test_zero_pivot_at_the_vacuum_pin_retries_at_the_top():
    # here the pin at n = 0 meets a zero pivot of the banded LU
    p = SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_a=0.0095, P_sigma=1.0)
    G = exact.sector_generator(p, 32, 0)
    (err,) = exact._pinned_solves(G.index, G.data[None], [0])[1]
    assert isinstance(err, NoSteadyStateError) and "zero pivot" in str(err)
    ss = exact.steady_state(p, n_max=32)
    assert float(np.trace(dense_rho(ss)).real) == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(ss.n_a) and ss.n_a > 0.0



def test_non_finite_pinned_solve_retries_at_the_top():
    # a subnormal detuning leaves no zero pivot but a non-finite vacuum-pin
    # solve; it takes the same top-rung retry
    p = SystemParams(g=1.0, gamma_a=0.0625, gamma_sigma=0.0, P_sigma=10.0, delta=2.04e-201)
    G = exact.sector_generator(p, 32, 0)
    (err,) = exact._pinned_solves(G.index, G.data[None], [0])[1]
    assert isinstance(err, NoSteadyStateError) and "near-zero pivot" in str(err)
    ss = exact.steady_state(p, n_max=32)
    ref = exact.steady_state(replace(p, delta=0.0), n_max=32)
    assert float(np.trace(dense_rho(ss)).real) == pytest.approx(1.0, abs=1e-12)
    assert ss.n_a == pytest.approx(ref.n_a, rel=1e-12)


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


def test_no_steady_state_names_its_cause():
    # nothing pumps or damps an undamped system, so every mixture of its
    # eigenstates is steady; a pump not below its loss lets the field grow
    undamped = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=0.0)
    with pytest.raises(NoSteadyStateError, match=r"^parameters admit no unique steady state "
                       r"\(nothing pumps or damps the system\)$"):
        exact.steady_state(undamped)
    for p in (replace(undamped, P_sigma=0.1), SystemParams(g=1.0, gamma_a=0.1, P_a=0.1),
              SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=0.5, P_sigma=0.5)):
        with pytest.raises(NoSteadyStateError, match=r"^parameters admit no steady state \(net gain exceeds loss\)$"):
            exact.steady_state(p)


def test_auto_cutoff_converges():
    p = SystemParams(P_sigma=0.3, **BASE)
    ss = exact.steady_state(p)
    assert ss.photon_distribution[-1] < 1e-12
    ref = exact.steady_state(p, n_max=2 * ss.space.n_max)
    assert ss.n_a == pytest.approx(ref.n_a, rel=1e-7)


@settings(max_examples=40, deadline=None)
@given(p=_rates_on_or_off(), n_max=st.integers(1, 6))
def test_band_storage_adds_up_the_entries_in_the_band(p, n_max):
    # duplicates add up as np.add.at adds them; rows of 2-D values give one band each
    G = exact.sector_generator(p, n_max, 0)
    ix = G.index
    kl, ku = ix.kl, ix.ku
    ref = np.zeros((2 * kl + ku + 1, G.size), dtype=complex)
    np.add.at(ref, (kl + ku + ix.row - ix.col, ix.col), G.data)
    assert exact._band_storage(ix, G.data, kl, ku).tobytes() == ref.tobytes()
    pair = exact._band_storage(ix, np.stack([G.data, 2.0 * G.data]), kl, ku)
    assert pair[0].tobytes() == ref.tobytes()
    assert pair[1].tobytes() == exact._band_storage(ix, 2.0 * G.data, kl, ku).tobytes()


@pytest.mark.parametrize("bad", [dict(n_max=0), dict(n_max=-1), dict(n_max_cap=0), dict(n_max_cap=-1),
                                 dict(rtol=0.0), dict(rtol=-1.0), dict(rtol=float("nan"))])
def test_out_of_range_solver_settings_are_refused(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=name):
        exact.steady_state(LASING, **bad)
    for pumps in ([0.5, 7.0], []):
        with pytest.raises(ValueError, match=name):
            exact.steady_state_sweep(LASING, pumps, **bad)


# Rates whose pumps reach every path of a cutoff round, with the pumps that
# reach it, the fixed cutoffs to draw from, the cap and the range of drawn pumps.
_BATCH_SCENARIOS = [
    # P = 0 fills its block without the pump term, under its own index; at
    # n_max 32 the vacuum pin of P 6.1 grows past 1e8 and is pinned at the peak
    (SystemParams(**BASE), [0.0, 6.1, 0.5, 1e-4, 30.0], [None, 32], 2048, (0.0, 40.0)),
    # a zero pivot at the vacuum pin: the top-rung retry
    (SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_a=0.0095), [1.0, 0.5], [32], 2048, (0.0, 8.0)),
    # P 7 needs a cutoff above the cap
    (SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334), [7.0, 0.2], [None], 300, (0.0, 8.0)),
    # a subnormal detuning: the vacuum-pin solve of P 10 is not finite, and is retried
    (SystemParams(g=1.0, gamma_a=0.0625, gamma_sigma=0.0, delta=2.04e-201), [10.0, 3.0], [None], 2048, (0.0, 8.0)),
    # no steady state from P = gamma_sigma on
    (SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=0.5), [0.2, 0.6], [None], 2048, (0.0, 0.45)),
]


@st.composite
def _pump_batches(draw):
    k = draw(st.sampled_from(range(len(_BATCH_SCENARIOS))))
    _, special, cutoffs, _, (lo, hi) = _BATCH_SCENARIOS[k]
    pumps = draw(st.lists(st.one_of(st.sampled_from(special), st.floats(lo, hi)), min_size=1, max_size=11))
    return k, pumps, draw(st.sampled_from(cutoffs))


def _same_state(a, b):
    if isinstance(a, exact.SteadyState):
        assert isinstance(b, exact.SteadyState)
        for name in ("p0", "p1", "q_r", "q_i"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.herm_defect == b.herm_defect and a.params == b.params
    else:
        assert type(a) is type(b) and str(a) == str(b)


@settings(max_examples=25, deadline=None)
@given(batch=_pump_batches())
@example(batch=(0, [0.0, 6.1, 0.0, 0.5, 1e-4, 30.0, 0.0, 6.1, 2.0, 0.3], None))
@example(batch=(0, [6.1, 0.0, 3.0], 32))
@example(batch=(0, [5.0, 6.1, 7.0, 8.0, 12.0], 32))  # lasing pumps re-pinned at their own peaks
@example(batch=(1, [1.0, 0.5, 1.0], 32))
@example(batch=(2, [7.0, 0.2, 1.5], None))
@example(batch=(3, [10.0, 3.0], None))
@example(batch=(4, [0.2, 0.6, 0.0], None))
def test_sweep_states_do_not_depend_on_their_batch(batch):
    # a pump's state or error is the same alone, in its sweep, and in the
    # sweep run backwards: bit for bit, with the same error type and text
    k, pumps, n_max = batch
    params, _, _, cap, _ = _BATCH_SCENARIOS[k]
    swept = exact.steady_state_sweep(params, pumps, n_max, n_max_cap=cap)
    backwards = exact.steady_state_sweep(params, pumps[::-1], n_max, n_max_cap=cap)[::-1]
    assert len(swept) == len(pumps)
    for P, a, b in zip(pumps, swept, backwards):
        (alone,) = exact.steady_state_sweep(params, [P], n_max, n_max_cap=cap)
        _same_state(a, alone)
        _same_state(b, alone)


# ---------------------------------------------------------------------------
# spectral lines and spectra
# ---------------------------------------------------------------------------


def test_linear_regime_rabi_doublet():
    p = SystemParams(P_sigma=1e-3, **BASE)
    ss = exact.steady_state(p, n_max=12)
    lines = sorted(
        exact.spectral_lines(ss, channel="cavity"), key=lambda l: -abs(l.L)
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
        lines = exact.spectral_lines(ss, channel=channel)
        tol = 1e-8 if P < 1.0 else 1e-6  # condensation region tops out at 1e-6
        assert sum(ln.L for ln in lines) == pytest.approx(1.0, abs=tol)
        assert sum(ln.K for ln in lines) == pytest.approx(0.0, abs=tol)


def test_eigen_vs_resolvent_spectra():
    # the fitted lines read the banded resolvent, detuned and resonant
    rng = np.random.default_rng(11)
    for delta in (0.3, 0.0):
        p = SystemParams(P_sigma=1.5, gamma_phi=0.1, delta=delta, **BASE)
        ss = exact.steady_state(p)
        ss_l = exact._populated_ladder(ss)
        for channel in ("cavity", "emitter"):
            lines = exact.spectral_lines(ss_l, channel=channel)
            w = rng.uniform(-6.0, 6.0, size=32)
            from_lines = evaluate_lines(lines, w)
            from_resolvent = resolvent_spectrum(exact.regression_sector(ss_l, channel), w)
            scale = np.max(np.abs(from_lines))
            assert np.max(np.abs(from_lines - from_resolvent)) < 1e-8 * scale


@pytest.mark.parametrize(
    "extra",
    [{}, {"P_a": 0.02, "gamma_phi": 0.3}, {"delta": 0.3}],
    ids=["resonant", "thermal_pump_dephasing", "detuned"],
)
def test_phase_similarity_keeps_the_resolvent(extra):
    # the lab-frame k = 1 block with u0 = (rho c')_{r;s} and readout <s|c|r>,
    # taken from dense operators, reads the same correlator as the sector's
    p = SystemParams(P_sigma=6.1, **extra, **BASE)
    ss = exact.steady_state(p)
    ss = exact._populated_ladder(ss)
    M = ss.space.n_max
    G_lab = exact.sector_generator(p, M, 1)
    r, s = G_lab.index.r, G_lab.index.s
    G_lab = dense_block(G_lab)
    rho = dense_rho(ss)
    eye = np.eye(len(r))
    omega = np.linspace(-3.0, 3.0, 9)
    for channel, c in zip(("cavity", "emitter"), operators(ss.space)):
        c = c.toarray()
        u0, readout = (rho @ c.conj().T)[r, s], c[s, r]
        sec = exact.regression_sector(ss, channel)
        G = dense_block(sec.generator)
        ref = np.array([readout @ np.linalg.solve(G_lab + 1j * w * eye, u0) for w in omega])
        got = np.array([sec.readout @ np.linalg.solve(G + 1j * w * eye, sec.u0) for w in omega])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_spectrum_normalization_and_triplet():
    ss = exact.steady_state(LASING, n_max=150)
    w = np.linspace(-60.0, 60.0, 8001)
    res = exact.spectrum(ss, channel="emitter", omega=w)
    assert np.min(res.values) > -1e-9
    # incoherent normalization: the cavity line set integrates to one within
    # +-10g; the emitter side bands are ~10g wide, so only the full line sum
    # (not a finite window) closes to one there
    cav = exact.spectral_lines(ss, channel="cavity")
    assert integrate_lines(cav, -10.0, 10.0) == pytest.approx(1.0, abs=1e-3)
    assert sum(ln.L for ln in res.lines) == pytest.approx(1.0, abs=1e-6)
    # sharp quasi-elastic line at the origin on top of the triplet; the
    # model has no delta, so none of the weight is elastic
    assert res.elastic_weight == 0.0
    narrow = min((ln for ln in res.lines if abs(ln.L) > 0.05), key=lambda l: l.gamma)
    assert narrow.L > 0.05
    assert narrow.gamma < LASING.gamma_a


def test_vacuum_rabi_doublet_in_spectrum():
    p = SystemParams(P_sigma=0.01, **BASE)
    w = np.linspace(-3.0, 3.0, 1201)
    ss = exact.steady_state(p)
    for channel in ("cavity", "emitter"):
        res = exact.spectrum(ss, channel=channel, omega=w)
        i = np.argmax(res.values * (w > 0.2))
        assert abs(w[i] - 1.0) < 0.05


def test_g2_near_one_at_lasing_midpoint():
    b = ap.regime_boundaries(LASING)
    mid = np.sqrt(b["quantum_lasing"] * b["lasing_quenching"])
    p = SystemParams(P_sigma=float(mid), **BASE)
    ss = exact.steady_state(p)
    assert abs(ss.g2 - 1.0) <= 0.05


def test_transition_map_structure():
    pumps = np.geomspace(0.005, 7.0, 8)
    tables = exact.transition_map(SystemParams(**BASE), pumps)
    assert len(tables) == len(pumps) and all(isinstance(t, list) for t in tables)
    by_pump = dict(zip(pumps, tables))
    # linear regime: dominant doublet at +-R0
    low = sorted(by_pump[pumps[0]], key=lambda r: -abs(r.L))[:2]
    assert {round(abs(r.omega), 1) for r in low} == {1.0}
    # negative-weight lines exist somewhere in the map
    assert any(r.L < -1e-6 for t in tables for r in t)
    # deep lasing: dominant line collapses to the origin and narrows below
    # the lasing-linewidth estimate within a factor two
    top = max(by_pump[pumps[-1]], key=lambda r: abs(r.L))
    assert abs(top.omega) < 0.05
    gamma_lasing = 2.0 * BASE["g"] ** 2 * BASE["gamma_a"] / pumps[-1] ** 2
    assert top.gamma < BASE["gamma_a"]
    assert gamma_lasing / 2.0 < top.gamma < gamma_lasing * 2.0


def test_transition_map_records_failures():
    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=0.5)
    lines, failed = exact.transition_map(p, np.array([0.1, 0.9]), n_max=30)
    assert isinstance(failed, NoSteadyStateError)
    assert lines and all(isinstance(ln, lineshape.SpectralLine) for ln in lines)


def test_transition_map_refuses_a_bad_channel_before_solving():
    # neither pump has a steady state, so only an up-front check can raise
    p = SystemParams(g=1.0, gamma_a=0.0, gamma_sigma=0.5)
    with pytest.raises(ValueError, match="unknown channel 'cavty'"):
        exact.transition_map(p, np.array([0.9, 1.0]), channel="cavty")


def test_transition_map_isolates_only_named_failures(monkeypatch):
    # a program error propagates; running out of memory in the banded LU of a
    # line table is a named SolverMemoryError, returned in its pump's place
    # like any other refusal.  The LU fails only once the steady states are solved.
    pumps = np.array([0.5, 1.0])
    p = SystemParams(**BASE)
    sweep = exact.steady_state_sweep

    def failing_after_the_sweep(fail):
        def sweep_then_fail(*args, **kwargs):
            states = sweep(*args, **kwargs)
            monkeypatch.setattr(exact, "zgbtrf", fail)
            return states
        return sweep_then_fail

    def broken(*args, **kwargs):
        raise TypeError("broken")

    monkeypatch.setattr(exact, "steady_state_sweep", failing_after_the_sweep(broken))
    with pytest.raises(TypeError, match="broken"):
        exact.transition_map(p, pumps, n_max=20)
    monkeypatch.undo()

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(exact, "steady_state_sweep", failing_after_the_sweep(out_of_memory))
    tables = exact.transition_map(p, pumps, n_max=20)
    assert len(tables) == 2 and all(isinstance(t, SolverMemoryError) for t in tables)
    assert all(str(t).startswith("out of memory in the banded LU") for t in tables)


def test_unclosed_line_weights_refused(monkeypatch):
    # a table whose weights miss one by more than 1e-6 is refused: n_c
    # overstated by 1e-5 at the top pump (cavity n_c = n_a ~ 11) makes its
    # fitted weights sum to 1 / (1 + 1e-5); the map records that pump alone
    p = SystemParams(P_sigma=40.0, **BASE)
    ss = exact.steady_state(p)
    assert sum(ln.L for ln in exact.spectral_lines(ss, channel="cavity")) == pytest.approx(1.0, abs=1e-8)
    real = exact.channel_population
    monkeypatch.setattr(exact, "channel_population", lambda n_c: real(n_c) * (1.0 + 1e-5 * (real(n_c) > 5.0)))
    with pytest.raises(LineFitError, match="^line weights miss one by 1.00e-05$"):
        exact.spectral_lines(ss, channel="cavity")
    low, high = exact.transition_map(SystemParams(**BASE), np.array([1.0, 40.0]))
    assert isinstance(high, LineFitError) and str(high).startswith("line weights miss one by")
    assert low and all(isinstance(ln, lineshape.SpectralLine) for ln in low)


def test_line_fit_refusals_are_named(monkeypatch):
    # a fit that does not validate within the sample budget, and one that
    # keeps a pole on or above the real axis, raise LineFitError (exit 3)
    # (200 solves take the start samples, 41, and the first checks, 62, but
    # not the second's 135)
    p = SystemParams(P_sigma=0.05, **BASE)
    ss = exact.steady_state(p, n_max=16)
    monkeypatch.setattr(exact, "_BUDGET", 200)
    monkeypatch.setattr(exact, "_VALID_RTOL", 0.0)
    with pytest.raises(LineFitError, match=r"^line fit not validated in 103 solves \(size 64\): misses by "):
        exact.spectral_lines(ss, channel="cavity")
    poles = exact._poles

    def flipped(*args):
        every, kept, res = poles(*args)
        return every, kept.conj(), res

    monkeypatch.setattr(exact, "_poles", flipped)
    monkeypatch.setattr(exact, "_VALID_RTOL", np.inf)
    with pytest.raises(LineFitError, match=r"\(size 64\): pole .* not below the real axis$"):
        exact.spectral_lines(ss, channel="cavity")


def test_line_fit_budget_bounds_the_solves(monkeypatch):
    # the budget is checked before each sampling, so the checks of a round
    # cannot take a table past it
    p = SystemParams(P_sigma=6.1, **BASE)
    sec = exact.regression_sector(exact.steady_state(p), "emitter")
    assert exact._line_table(sec)[1]["resolvent_solves"] > 100
    solved = set()
    real = exact._resolvent

    def spy(sec, z):
        solved.update(z.tolist())
        return real(sec, z)

    monkeypatch.setattr(exact, "_resolvent", spy)
    monkeypatch.setattr(exact, "_BUDGET", 100)
    with pytest.raises(LineFitError, match=r"^line fit not validated in \d+ solves"):
        exact._line_table(sec)
    assert 0 < len(solved) <= 100


def _narrowest(lines):
    # the narrowest line of weight above 0.05; of a mirror pair, the one at -omega
    heavy = [ln for ln in lines if abs(ln.L) > 0.05]
    width = min(ln.gamma for ln in heavy)
    return min((ln for ln in heavy if ln.gamma < width + 1e-9), key=lambda ln: ln.omega)


@pytest.mark.parametrize(
    "extra",
    [dict(P_sigma=0.05), dict(P_sigma=1.5), dict(P_sigma=6.1), dict(P_sigma=1.5, delta=0.3, gamma_phi=0.1),
     dict(P_sigma=1.5, P_a=0.02)],
    ids=["P0.05", "P1.5", "P6.1", "detuned_dephased", "cavity_pump"],
)
def test_line_table_matches_the_dense_eig(extra):
    # the dense eigendecomposition of the k = 1 block is the oracle where it
    # is accepted: the grids agree to 1e-8 of max S, and so do the narrow
    # cavity line's position, width and weight to 1e-6.  The emitter's broad
    # bands of eigenvalues merge into a few effective poles, so its lines differ
    p = SystemParams(**BASE, **extra)
    ss = exact.steady_state(p)
    w = np.linspace(-20.0, 20.0, 2001)
    for channel in ("cavity", "emitter"):
        sec = exact.regression_sector(ss, channel)
        dec = lineshape.decompose(dense_block(sec.generator), sec.u0, sec.readout, np.zeros_like(sec.u0))
        eig = lineshape.lines_from_eigenpairs(dec.lams, dec.weights / dec.n_c)
        fit = exact.spectral_lines(ss, channel=channel)
        ref = evaluate_lines(eig, w)
        assert np.max(np.abs(evaluate_lines(fit, w) - ref)) <= 1e-8 * np.max(ref)
        if channel == "cavity":
            a, b = (_narrowest(t) for t in (eig, fit))
            assert abs(a.omega - b.omega) <= 1e-6 and abs(a.gamma - b.gamma) <= 1e-6 and abs(a.L - b.L) <= 1e-6
            if extra == dict(P_sigma=6.1):
                assert (b.omega, b.gamma, b.L) == pytest.approx((0.0, 7.480541e-3, 1.002990), abs=1e-6)


@settings(max_examples=12, deadline=None)
@given(P=st.floats(1.0, 40.0))
@example(P=15.0)  # the dense eig refused this emitter table
@example(P=float(np.geomspace(0.01, 40.0, 60)[54]))  # P 22.8: ... and this cavity table
def test_line_weights_sum_to_one_across_the_lasing_window(P):
    p = SystemParams(P_sigma=P, **BASE)
    ss = exact.steady_state(p)
    for channel in ("cavity", "emitter"):
        lines = exact.spectral_lines(ss, channel=channel)
        assert abs(sum(ln.L for ln in lines) - 1.0) <= 1e-6
        assert min(ln.gamma for ln in lines) > 0.0


def test_line_table_does_not_depend_on_the_blas_thread_count():
    # one table in a fresh process at 1 and at 2 OpenBLAS threads.  At P 19.8
    # the dense eig's lines moved by up to omega 0.78 between the two; the
    # fitted tables of both channels came out bit for bit equal on a 2-vCPU
    # host, and must agree to 1e-9 in every entry
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import json\n"
        "from jclaser import exact\n"
        "from jclaser.params import SystemParams\n"
        "p = SystemParams(g=1.0, gamma_a=0.1, gamma_sigma=0.00334, P_sigma=19.80617764663988)\n"
        "ss = exact.steady_state(p)\n"
        "print(json.dumps([[(l.omega, l.gamma, l.L, l.K) for l in exact.spectral_lines(ss, channel=c)]\n"
        "                  for c in ('cavity', 'emitter')]))\n"
    )
    src = str(Path(exact.__file__).parents[1])
    tables = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        tables.append(json.loads(proc.stdout))
    for one, two in zip(*tables):
        assert len(one) == len(two)
        assert np.max(np.abs(np.array(one) - np.array(two))) <= 1e-9


def _dense_resolvent(sec, omega):
    # the reference: one dense solve of G + i w per frequency
    G = dense_block(sec.generator)
    eye = np.eye(sec.generator.size)
    n_c = np.real(sec.readout @ sec.u0)
    return np.array(
        [-np.real(sec.readout @ np.linalg.solve(G + 1j * w * eye, sec.u0)) for w in omega]
    ) / (np.pi * n_c)


@pytest.mark.parametrize(
    "gamma_a, P, channels, omega",
    [
        (0.1, 6.1, ("cavity", "emitter"), np.linspace(-12.0, 12.0, 49)),
        (0.01, 3.0, ("cavity",), np.array([-2.0, -0.3, 0.0, 1e-3, 0.7])),
    ],
    ids=["spectra_point", "good_cavity"],
)
def test_banded_resolvent_matches_dense_solve(gamma_a, P, channels, omega):
    p = SystemParams(g=1.0, gamma_a=gamma_a, gamma_sigma=0.00334, P_sigma=P)
    ss = exact.steady_state(p)
    for channel in channels:
        sec = exact.regression_sector(ss, channel)
        ref = _dense_resolvent(sec, omega)
        got = resolvent_spectrum(sec, omega)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# points of the line table's start samples and of its real-axis checks
_MIRROR_Z = np.concatenate([0.02j + np.linspace(-30.0, 30.0, 13), [0.0, 1.5, -2.7, 1e3],
                            0.02j + np.geomspace(30.0, 3e3, 4)])


@settings(max_examples=15, deadline=None)
@given(
    gamma_a=st.floats(0.05, 2.0),
    gamma_sigma=st.floats(1e-3, 1.0),
    gamma_phi=st.sampled_from([0.0, 0.1, 0.7]),
    P_a=st.floats(0.0, 0.9),
    P=st.floats(0.01, 10.0),
)
def test_resonant_resolvent_is_mirror_symmetric(gamma_a, gamma_sigma, gamma_phi, P_a, P):
    # at delta = 0, F(-conj z) = conj F(z) on both channels, which lets the
    # line table solve only Re z >= 0; a detuning breaks it
    for delta, mirrored in ((0.0, True), (0.5, False)):
        p = SystemParams(g=1.0, gamma_a=gamma_a, gamma_sigma=gamma_sigma, gamma_phi=gamma_phi,
                         P_a=P_a * gamma_a, P_sigma=P, delta=delta)
        ss = exact.steady_state(p)
        for channel in ("cavity", "emitter"):
            sec = exact.regression_sector(ss, channel)
            assert sec.resonant is mirrored
            F = exact._resolvent(sec, _MIRROR_Z)
            gap = np.max(np.abs(exact._resolvent(sec, -_MIRROR_Z.conj()) - F.conj())) / np.max(np.abs(F))
            assert bool(gap <= 1e-15) is mirrored, (channel, gap)


def _solved_points(monkeypatch):
    # every point that the line table hands to the banded resolvent
    solved = []
    real = exact._resolvent

    def spy(sec, z):
        solved.extend(np.asarray(z).tolist())
        return real(sec, z)

    monkeypatch.setattr(exact, "_resolvent", spy)
    return solved


@pytest.mark.parametrize("delta", [0.0, 0.5], ids=["resonant", "detuned"])
def test_line_table_solves_each_point_once(monkeypatch, delta):
    # one sampler serves samples and checks: no point is factored twice, and
    # at resonance no point with Re z < 0 is factored at all
    p = SystemParams(P_sigma=6.1, delta=delta, **BASE)
    ss = exact.steady_state(p)
    solved = _solved_points(monkeypatch)
    for channel in ("cavity", "emitter"):
        sec = exact.regression_sector(ss, channel)
        solved.clear()
        lines, fit = exact._line_table(sec)
        assert len(solved) == len(set(solved)) == fit["resolvent_solves"]
        negative = [z for z in solved if z.real < 0.0]
        assert (negative == []) is (delta == 0.0)
        w = np.linspace(-20.0, 20.0, 401)
        ref = resolvent_spectrum(sec, w)
        assert np.max(np.abs(evaluate_lines(lines, w) - ref)) <= 1e-8 * np.max(ref)


def test_sidecar_counts_the_distinct_solves(monkeypatch, tmp_path):
    # resolvent_solves in the sidecar is the number of points factored
    import json

    from jclaser.cli import main

    solved = _solved_points(monkeypatch)
    out = tmp_path / "cav.csv"
    assert main(["spectrum", "--gamma-a", "0.01", "--gamma-sigma", "0.00334", "--pump-sigma", "3",
                 "--channel", "cavity", "--out", str(out)]) == 0
    validity = json.loads((tmp_path / "cav.lines.json").read_text())["validity"]
    assert validity["resolvent_solves"] == len(set(solved)) == len(solved)


def test_spectrum_grid_integral_shows_a_missed_line():
    # the CLI's default grid steps 0.02 over lines 0.0075 wide at P 6.1: the
    # cavity spectrum integrates to 1.90 instead of one, the emitter to 0.91
    p = SystemParams(P_sigma=6.1, **BASE)
    ss = exact.steady_state(p)
    w = np.linspace(-20.0, 20.0, 2001)
    readings = {}
    for channel in ("cavity", "emitter"):
        res = exact.spectrum(ss, channel=channel, omega=w)
        assert res.meta["grid_integral"] == np.trapezoid(res.values, res.omega)
        assert min(abs(ln.gamma) for ln in res.lines) < w[1] - w[0]
        readings[channel] = res.meta["grid_integral"]
    assert readings["cavity"] == pytest.approx(1.896, abs=1e-3)
    assert readings["emitter"] == pytest.approx(0.915, abs=1e-3)
    # a grid that resolves the cavity lines integrates to one; the emitter's
    # broad lines leave ~0.19 of their weight outside [-20, 20]
    fine = np.linspace(-20.0, 20.0, 40001)
    res = exact.spectrum(ss, channel="cavity", omega=fine)
    assert res.meta["grid_integral"] == pytest.approx(1.0, abs=1e-4)


def test_refused_spectrum_builds_its_sector_once(monkeypatch):
    # the samples and checks of the line fit share one k = 1 sector, also
    # when the fit is refused
    p = SystemParams(P_sigma=0.05, **BASE)
    ss = exact.steady_state(p, n_max=16)
    built = []
    real = exact.sector_generator

    def spy(params, n_max, k):
        built.append(k)
        return real(params, n_max, k)

    monkeypatch.setattr(exact, "sector_generator", spy)
    exact.spectrum(ss, channel="cavity", omega=np.linspace(-2.0, 2.0, 9))
    assert built == [1]
    monkeypatch.setattr(exact, "_BUDGET", 1)
    monkeypatch.setattr(exact, "_VALID_RTOL", 0.0)
    with pytest.raises(LineFitError):
        exact.spectrum(ss, channel="cavity", omega=np.linspace(-2.0, 2.0, 9))
    assert built == [1, 1]


def test_resolvent_zero_pivot_named(monkeypatch):
    p = SystemParams(P_sigma=0.05, **BASE)
    sec = exact.regression_sector(exact.steady_state(p, n_max=16), "cavity")
    real = exact.zgbtrf
    monkeypatch.setattr(exact, "zgbtrf", lambda *a, **k: (*real(*a, **k)[:2], 3))
    with pytest.raises(ZeroPivotError) as info:
        resolvent_spectrum(sec, np.array([0.0, 0.5]))
    assert not isinstance(info.value, NoSteadyStateError)
    assert "singular Liouvillian" not in str(info.value)


def test_resolvent_memory_error_named(monkeypatch):
    p = SystemParams(P_sigma=0.05, **BASE)
    sec = exact.regression_sector(exact.steady_state(p, n_max=16), "cavity")

    def oom(*a, **k):
        raise MemoryError("no room")

    monkeypatch.setattr(exact, "zgbtrf", oom)
    with pytest.raises(SolverMemoryError, match=rf"out of memory in the banded LU \(size {sec.generator.size}\): no room"):
        resolvent_spectrum(sec, np.array([0.0, 0.5]))


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


def test_empty_channel_is_refused_when_its_sector_is_built():
    # at P_sigma = 0 the emitter holds nothing: the sector refuses before the
    # eig or the banded resolvent runs, so resolvent_spectrum cannot divide by 0
    p = SystemParams(**BASE)
    with pytest.raises(EmptyChannelError, match="^empty channel: its population n_c = 0 "):
        exact.regression_sector(exact.steady_state(p, n_max=8), "emitter")
    p = replace(p, P_sigma=0.5)
    sec = exact.regression_sector(exact.steady_state(p, n_max=8), "emitter")
    assert sec.n_c == float(np.real(np.dot(sec.readout, sec.u0))) > 0.0
    assert np.all(np.isfinite(resolvent_spectrum(sec, np.array([0.0, 0.5]))))


@pytest.mark.parametrize(
    "rates",
    [dict(g=6.4120516865424166e268, gamma_a=2.1407941896822957e-237, P_sigma=3.367139567846553e67),
     dict(g=7.50618008981001e287, gamma_a=19.801333636412377, gamma_sigma=6.522190083316558e-107,
          gamma_phi=4.984539475022015e114, P_sigma=1.94509855431681e43)],
    ids=["zero", "subnormal"],
)
def test_solution_without_a_trace_is_refused(rates):
    # at such rates a pinned solve can come back with a trace of 0, or one so
    # small that dividing by it overflows; that pump has no steady state
    (ss,) = exact.steady_state_sweep(SystemParams(**rates), [rates["P_sigma"]])
    assert isinstance(ss, NoSteadyStateError) and "trace" in str(ss)
