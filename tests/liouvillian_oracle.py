"""Full-Liouvillian steady state: the reference the sector engine is checked against.

It solves all dim^2 coefficients of rho with a trace row in place of the
d(rho_00)/dt equation, so elements outside the excitation-number-zero sector
are unknowns here and their smallness is a measured property, not a
construction.  Costs O(n_max^2) memory; use at n_max of a few hundred at most.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from jclaser import exact


def full_steady_rho(params, n_max: int) -> np.ndarray:
    space = exact.FockSpace(n_max)
    L = exact.build_liouvillian(params, n_max).tocoo()
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
