import numpy as np
import pytest

from jclaser.errors import NonDiagonalizableError
from jclaser.lineshape import decompose, evaluate_lines, lines_from_eigenpairs


def _lines(dec, i=...):
    return lines_from_eigenpairs(dec.lams[i], dec.weights[i] / dec.n_c[i])


def test_single_damped_mode():
    # u(tau) = e^{(-gamma/2 - i omega) tau} u0: one line at omega, FWHM gamma
    omega, gamma = 1.7, 0.3
    dec = decompose(np.array([[-gamma / 2.0 - 1j * omega]]), np.array([2.5]), np.array([1.0]))
    (line,) = _lines(dec)
    assert line.omega == pytest.approx(omega, rel=1e-15)
    assert line.gamma == pytest.approx(gamma, rel=1e-15)
    assert (line.L, line.K) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert dec.n_c == 2.5 and dec.elastic == 0.0
    w = np.linspace(-5.0, 5.0, 11)
    lorentz = (gamma / 2.0) / np.pi / ((gamma / 2.0) ** 2 + (w - omega) ** 2)
    assert evaluate_lines([line], w) == pytest.approx(lorentz, rel=1e-14)


def test_stationary_part_of_the_inhomogeneity():
    # du/dtau = lam u + f relaxes to B = -f / lam, the elastic part
    lam, f, u0 = -0.4 - 2.0j, 0.3 + 0.1j, 1.2
    dec = decompose(np.array([[lam]]), np.array([u0]), np.array([1.0]), np.array([f]))
    assert dec.elastic == pytest.approx(-f / lam, rel=1e-15)
    assert dec.weights[0] == pytest.approx(u0 + f / lam, rel=1e-15)
    assert dec.lams[0] == lam


def test_stacked_batch_equals_single_blocks():
    rng = np.random.default_rng(5)
    n, size = 7, 4
    G = rng.normal(size=(n, size, size)) + 1j * rng.normal(size=(n, size, size)) - 3.0 * np.eye(size)
    u0 = rng.normal(size=(n, size)) + 1j * rng.normal(size=(n, size))
    readout = rng.normal(size=(n, size))
    inhom = rng.normal(size=(n, size)) + 1j * rng.normal(size=(n, size))
    u0 = u0 * np.sign(np.sum(readout * u0, axis=-1).real)[:, None]  # n_c > 0
    batch = decompose(G, u0, readout, inhom)
    for i in range(n):
        one = decompose(G[i], u0[i], readout[i], inhom[i])
        for field in ("lams", "weights", "elastic", "n_c"):
            assert np.allclose(getattr(batch, field)[i], getattr(one, field), rtol=1e-13, atol=1e-13)
        assert _lines(batch, i) == pytest.approx(_lines(one), rel=1e-12)


def test_degenerate_pair_merges():
    G = np.diag([-0.5 - 1.0j, -0.5 - 1.0j, -2.0 + 3.0j])
    u0 = np.array([0.2, 0.3, 0.5])
    dec = decompose(G, u0, np.ones(3))
    lines = _lines(dec)
    assert len(lines) == 2
    merged = min(lines, key=lambda ln: ln.gamma)
    assert (merged.omega, merged.gamma) == pytest.approx((1.0, 1.0), rel=1e-15)
    assert merged.L == pytest.approx(0.5, rel=1e-15)
    assert sum(ln.L for ln in lines) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("eps", [0.0, 1e-300, 1e-30, 1e-20, 1e-16, 1e-12, 1e-8])
def test_near_defective_block_refused_or_closed(eps):
    # [[lam, 1], [eps, lam]] has eigenvalues lam +- sqrt(eps): an exceptional
    # point at eps = 0, where the eigenbasis collapses
    lam = -0.5 - 1.0j
    G = np.array([[lam, 1.0], [eps, lam]])
    u0, readout = np.array([0.3, 1.0]), np.array([1.0, 0.0])
    try:
        dec = decompose(G, u0, readout)
    except NonDiagonalizableError:
        return
    lines = _lines(dec)
    assert all(np.isfinite([ln.omega, ln.gamma, ln.L, ln.K]).all() for ln in lines)
    assert sum(ln.L for ln in lines) == pytest.approx(1.0, abs=1e-6)


def test_ill_conditioned_eigenbasis_refused():
    # eigenvalues 1e-3 apart with cond(V) ~ 1e15: the residual is small, but
    # the weights are roundoff and miss readout . u0, so the table is refused
    G = np.array([[-1.0, 1e12], [0.0, -1.0 + 1e-3]])
    with pytest.raises(NonDiagonalizableError, match="line weights"):
        decompose(G, np.array([1.0, 1.0]), np.array([1.0, 1.0]))


def test_weight_floor_uses_both_parts():
    lams = np.array([-1.0 - 1.0j, -1.0 + 1.0j, -2.0 + 0.0j])
    weights = np.array([1.0 + 0.0j, 3e-15 + 3e-15j, 2e-15 + 0.0j])
    kept = lines_from_eigenpairs(lams, weights, 5e-15)
    assert [ln.omega for ln in kept] == [1.0, -1.0]


def test_singular_block_takes_least_squares_stationary_part():
    # a zero eigenvalue makes G B = -f singular; that block alone would go to
    # lstsq, and a batch holding it must give the same minimum-norm B
    G = np.array([np.diag([0.0, -1.0]), np.diag([-2.0, -1.0])]).astype(complex)
    inhom = np.array([[0.0, 0.5], [0.4, 0.5]], dtype=complex)
    u0 = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    dec = decompose(G, u0, np.ones(2), inhom)
    for i in range(2):
        B = np.linalg.lstsq(G[i], -inhom[i], rcond=None)[0]
        assert dec.elastic[i] == pytest.approx(np.sum(B), abs=1e-15)
    assert np.sum(dec.weights, axis=-1) + dec.elastic == pytest.approx(dec.n_c, abs=1e-15)
