import numpy as np
import pytest

from jclaser.errors import NonDiagonalizableError
from jclaser.lineshape import SpectralLine, decompose, evaluate_lines, integrate_lines, lines_from_eigenpairs, merge_degenerate


def _lines(dec, i=...):
    return lines_from_eigenpairs(dec.lams[i], dec.weights[i] / dec.n_c[i])


def test_single_damped_mode():
    # u(tau) = e^{(-gamma/2 - i omega) tau} u0: one line at omega, FWHM gamma
    omega, gamma = 1.7, 0.3
    u0 = np.array([2.5])
    dec = decompose(np.array([[-gamma / 2.0 - 1j * omega]]), u0, np.array([1.0]), np.zeros_like(u0))
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
    dec = decompose(G, u0, np.ones(3), np.zeros_like(u0))
    lines = _lines(dec)
    assert len(lines) == 2
    merged = min(lines, key=lambda ln: ln.gamma)
    assert (merged.omega, merged.gamma) == pytest.approx((1.0, 1.0), rel=1e-15)
    assert merged.L == pytest.approx(0.5, rel=1e-15)
    assert sum(ln.L for ln in lines) == pytest.approx(1.0, rel=1e-15)


def test_degenerate_chain_merges_into_one_group():
    # 1 and 1 + 1.2e-9 are farther apart than the 1e-9 gap, but each is within
    # it of 1 + 0.6e-9, so the chain joins them into one group of weight 3
    lams, weights, keep = merge_degenerate(np.array([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9]), np.ones(3))
    assert keep.tolist() == [True, False, False]
    assert weights[0] == 3.0
    assert lams[0] == pytest.approx(1.0 + 0.6e-9, rel=1e-15)


def test_degenerate_lines_merge_within_a_block_only():
    # lines 1e-10 apart, inside the 1e-9 gap: the pair of block 0 merges, but
    # block 1's line stays apart from it, as lines of different rungs are
    # distinct lines however close they lie
    lam = -0.5 - 2.0j
    lams = np.array([[lam, lam + 1e-10], [lam + 2e-10, -1.0 + 3.0j]])
    lines = lines_from_eigenpairs(lams, np.full((2, 2), 0.25 + 0.0j))
    assert [ln.L for ln in lines] == [0.5, 0.25, 0.25]
    assert lines[0].omega == pytest.approx(2.0, rel=1e-15) and lines[1].omega == lines[0].omega
    assert lines[1].gamma == pytest.approx(1.0 - 4e-10, rel=1e-12)


def test_defective_block_refused_by_its_eigenbasis_residual():
    # the nilpotent Jordan block has one eigenvector for its double zero; its
    # residual reads ~2e8 of max |lam|, far above the 1e-8 bound
    G = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonDiagonalizableError, match="eigenbasis residual"):
        decompose(G, np.array([1.0, 1.0]), np.array([1.0, 0.0]), np.zeros(2))


@pytest.mark.parametrize("eps", [0.0, 1e-300, 1e-30, 1e-20, 1e-16, 1e-12, 1e-8])
def test_near_defective_block_refused_or_closed(eps):
    # [[lam, 1], [eps, lam]] has eigenvalues lam +- sqrt(eps): an exceptional
    # point at eps = 0, where the eigenbasis collapses
    lam = -0.5 - 1.0j
    G = np.array([[lam, 1.0], [eps, lam]])
    u0, readout = np.array([0.3, 1.0]), np.array([1.0, 0.0])
    try:
        dec = decompose(G, u0, readout, np.zeros_like(u0))
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
        decompose(G, np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.zeros(2))


def test_weight_floor_uses_both_parts():
    lams = np.array([-1.0 - 1.0j, -1.0 + 1.0j, -2.0 + 0.0j])
    # the floor is 1e-14: the second line reaches it only with both parts
    weights = np.array([1.0 + 0.0j, 6e-15 + 6e-15j, 8e-15 + 0.0j])
    kept = lines_from_eigenpairs(lams, weights)
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


@pytest.mark.parametrize("shape", [(300, 300), (40, 3, 3), (1, 1)])
@pytest.mark.parametrize("kind", ["real", "real-eigvecs", "complex"])
def test_eig_residual_in_row_blocks_is_the_full_residual(shape, kind):
    # the residual that decompose refuses by: max |G V - V lam| per block,
    # as the full complex product gives it
    from jclaser import lineshape

    rng = np.random.default_rng(7)
    G = rng.standard_normal(shape)
    if kind == "complex":
        G = G + 1j * rng.standard_normal(shape)
    V = rng.standard_normal(shape) + (0.0 if kind == "real-eigvecs" else 1j * rng.standard_normal(shape))
    lams = rng.standard_normal(shape[:-1]) + (0.0 if kind == "real-eigvecs" else 1j * rng.standard_normal(shape[:-1]))
    full = np.max(np.abs(G.astype(complex) @ V - V * lams[..., None, :]), axis=(-2, -1))
    assert lineshape._eig_residual(G, V, lams) == pytest.approx(full, rel=1e-13)



def test_line_integral_counts_sharp_lines_inside_the_window_only():
    # a zero-width line counts its L inside [lo, hi] (edges included) and
    # nothing outside; a broad one is the closed form of its Lorentzian and
    # dispersive parts, here against a fine trapezoid of the line sum
    sharp = [SpectralLine(omega=0.5, gamma=0.0, L=0.25), SpectralLine(omega=3.0, gamma=0.0, L=0.5)]
    assert integrate_lines(sharp, -1.0, 1.0) == 0.25
    assert integrate_lines(sharp, 0.5, 3.0) == 0.75
    assert integrate_lines([], -1.0, 1.0) == 0.0
    broad = [SpectralLine(omega=0.3, gamma=0.8, L=0.6, K=0.2), SpectralLine(omega=-1.1, gamma=0.4, L=0.4, K=-0.1)]
    w = np.linspace(-2.0, 1.5, 400_001)
    numeric = np.trapezoid(evaluate_lines(broad, w), w)
    assert integrate_lines(broad + sharp, -2.0, 1.5) == pytest.approx(numeric + 0.25, abs=1e-9)
