"""Full Liouvillian and its steady state: the reference the sector engine is checked against.

``build_liouvillian`` (with ``operators``, ``_model`` and ``_dissipator``)
assembles the superoperator from sparse operator products, independently of
the ladder gathers of ``exact.sector_generator``.  ``full_steady_rho`` solves
all dim^2 coefficients of rho with a trace row in place of the d(rho_00)/dt
equation, so elements outside the excitation-number-zero sector are unknowns
here and their smallness is a measured property, not a construction.  Costs
O(n_max^2) memory; use at n_max of a few hundred at most.

``dense_rho``, ``trace_defect``, ``min_eigenvalue`` and ``dense_block`` are
the dense views of the engine's sector records, which the engine itself
never builds.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from jclaser import exact
from jclaser.params import SystemParams


def operators(space: exact.FockSpace) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Annihilation operators (a, sigma) on the truncated product space."""
    dim = space.dim
    n = np.repeat(np.arange(1, space.n_max + 1), 2)
    i = np.tile([0, 1], space.n_max)
    a = sp.csr_matrix((np.sqrt(n).astype(complex), (2 * (n - 1) + i, 2 * n + i)), shape=(dim, dim))
    m = np.arange(space.n_max + 1)
    sig = sp.csr_matrix((np.ones(len(m), dtype=complex), (2 * m, 2 * m + 1)), shape=(dim, dim))
    return a, sig


def _model(params: SystemParams, space: exact.FockSpace) -> tuple[sp.csr_matrix, list]:
    """Hamiltonian and (jump operator, rate) pairs.

    The cavity frequency is the zero of energy, so the emitter sits at -delta.
    """
    a, sig = operators(space)
    ad, sd = a.conj().T.tocsr(), sig.conj().T.tocsr()
    H = (-params.delta * (sd @ sig) + params.g * (ad @ sig + a @ sd)).tocsr()
    jumps = [
        (a, params.gamma_a),
        (sig, params.gamma_sigma),
        (ad, params.P_a),
        (sd, params.P_sigma),
        ((sd @ sig).tocsr(), params.gamma_phi),
    ]
    return H, [(c, rate) for c, rate in jumps if rate]


def _dissipator(c: sp.spmatrix, rate: float, ident: sp.spmatrix) -> sp.spmatrix:
    """rate/2 (2 c . c' - c'c . - . c'c) as a superoperator (row-major vec)."""
    cd = c.conj().T
    cdc = (cd @ c).tocsr()
    return (rate / 2.0) * (
        2.0 * sp.kron(c, cd.T, format="csr")
        - sp.kron(cdc, ident, format="csr")
        - sp.kron(ident, cdc.T, format="csr")
    )


def build_liouvillian(params: SystemParams, n_max: int) -> sp.csr_matrix:
    """Sparse generator of d(rho)/dt = L rho over all dim^2 coefficients.

    The test oracle for the sector blocks: it costs O(n_max^2) memory.
    """
    space = exact.FockSpace(n_max)
    H, jumps = _model(params, space)
    ident = sp.identity(space.dim, format="csr", dtype=complex)
    # i[rho, H] -> i (1 x H^T - H x 1) on row-major vec(rho)
    L = 1j * (sp.kron(ident, H.T, format="csr") - sp.kron(H, ident, format="csr"))
    for c, rate in jumps:
        L = L + _dissipator(c, rate, ident)
    return L.tocsr()


def full_steady_rho(params, n_max: int) -> np.ndarray:
    space = exact.FockSpace(n_max)
    L = build_liouvillian(params, n_max).tocoo()
    dim = space.dim
    N = dim * dim
    keep = L.row != 0
    rows = np.concatenate([L.row[keep], np.zeros(dim, dtype=L.row.dtype)])
    cols = np.concatenate([L.col[keep], np.arange(dim) * (dim + 1)])
    data = np.concatenate([L.data[keep], np.ones(dim, dtype=complex)])
    A = sp.csc_matrix((data, (rows, cols)), shape=(N, N))
    b = np.zeros(N, dtype=complex)
    b[0] = 1.0
    lu = spla.splu(A)
    x = lu.solve(b)
    for _ in range(2):
        x += lu.solve(b - A @ x)
    return x.reshape(dim, dim)


def off_pattern_max(rho: np.ndarray) -> float:
    """Largest element outside the steady-state sparsity pattern.

    The pattern is the diagonal plus the coherences rho_{n,0; n-1,1} and
    their conjugates (flat indices 2n and 2n - 1).
    """
    dim = rho.shape[0]
    mask = np.ones_like(rho, dtype=bool)
    idx = np.arange(dim)
    mask[idx, idx] = False
    k = np.arange(2, dim, 2)
    mask[k, k - 1] = False
    mask[k - 1, k] = False
    return float(np.max(np.abs(rho[mask])))


def dense_rho(ss: exact.SteadyState) -> np.ndarray:
    """Dense density matrix of the per-rung steady-state record."""
    r, s = exact._sector_pairs(ss.space.n_max, 0)
    out = np.zeros((ss.space.dim, ss.space.dim), dtype=complex)
    out[r, s] = ss.element(r, s)
    return out


def trace_defect(ss: exact.SteadyState) -> float:
    return abs(float(ss.photon_distribution.sum()) - 1.0)


def min_eigenvalue(ss: exact.SteadyState) -> float:
    return float(np.linalg.eigvalsh(dense_rho(ss))[0])


def dense_block(block: exact.SectorBlock) -> np.ndarray:
    """The sector block as a dense matrix; duplicate entries add up."""
    out = np.zeros((block.size, block.size), dtype=block.data.dtype)
    np.add.at(out, (block.index.row, block.index.col), block.data)
    return out
