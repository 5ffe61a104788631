"""Numerically exact engine on a truncated Fock space, one excitation sector at a time.

The Hamiltonian and every jump operator shift the excitation number
N = a'a + sigma'sigma by a fixed amount, so the generator never mixes
density-matrix elements rho_{r;s} of different k = N(r) - N(s).  The engine
assembles the block of one k directly from per-state ladder arrays (each
operator of the model maps a basis state to at most one other), ordered by
excitation number (dimension ~4 n_max instead of the 4 (n_max + 1)^2 of the
full Liouvillian):

- k = 0 holds the steady state: populations and the coherences between
  |n,0> and |n-1,1>.  In excitation order it is banded (at most 4 sub- and
  4 super-diagonals), so a LAPACK banded LU solves it in O(n_max) with one
  photon-number population pinned; the result is divided by its trace.  This
  is the exact route behind every command.
- k = 1 holds the two-time correlators of the quantum regression theorem, so
  spectral lines come from a dense eigendecomposition of that block.

``build_liouvillian`` (with ``operators``, ``_model`` and ``_dissipator``)
assembles the full superoperator; only the tests use it, as the oracle the
sector blocks are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .errors import (
    NonDiagonalizableError,
    NoSteadyStateError,
    SolverMemoryError,
    TruncationNotConvergedError,
)
from .lineshape import (
    SpectralLine,
    SpectrumResult,
    decompose,
    evaluate_lines,
    lines_from_eigenpairs,
)
from .params import SystemParams


@dataclass(frozen=True)
class FockSpace:
    """Photon-number times emitter-state basis with flat index 2n + i."""

    n_max: int

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)

    def index(self, n: int, i: int) -> int:
        if not (0 <= n <= self.n_max and i in (0, 1)):
            raise IndexError(f"state ({n},{i}) outside the truncated space")
        return 2 * n + i

    def state(self, k: int) -> tuple[int, int]:
        return divmod(k, 2)


def operators(space: FockSpace) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Annihilation operators (a, sigma) on the truncated product space."""
    dim = space.dim
    n = np.repeat(np.arange(1, space.n_max + 1), 2)
    i = np.tile([0, 1], space.n_max)
    a = sp.csr_matrix((np.sqrt(n).astype(complex), (2 * (n - 1) + i, 2 * n + i)), shape=(dim, dim))
    m = np.arange(space.n_max + 1)
    sig = sp.csr_matrix((np.ones(len(m), dtype=complex), (2 * m, 2 * m + 1)), shape=(dim, dim))
    return a, sig


def _model(params: SystemParams, space: FockSpace) -> tuple[sp.csr_matrix, list]:
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
    space = FockSpace(n_max)
    H, jumps = _model(params, space)
    ident = sp.identity(space.dim, format="csr", dtype=complex)
    # i[rho, H] -> i (1 x H^T - H x 1) on row-major vec(rho)
    L = 1j * (sp.kron(ident, H.T, format="csr") - sp.kron(H, ident, format="csr"))
    for c, rate in jumps:
        L = L + _dissipator(c, rate, ident)
    return L.tocsr()


def _sector_pairs(n_max: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (r, s) of the elements rho_{r;s} with N(r) - N(s) = k.

    Ordered by excitation number N(s), so the generator block is banded.
    Given r, the emitter state s % 2 picks s, so ``_sector_position`` is an
    O(n_max) table.
    """
    dim = 2 * (n_max + 1)
    r = np.repeat(np.arange(dim), 2)
    j = np.tile([0, 1], dim)
    ns = r // 2 + r % 2 - k - j  # photon number of s
    ok = (ns >= 0) & (ns <= n_max)
    r, s = r[ok], 2 * ns[ok] + j[ok]
    order = np.argsort(s // 2 + s % 2, kind="stable")
    return r[order], s[order]


def _sector_position(r: np.ndarray, s: np.ndarray, dim: int) -> np.ndarray:
    pos = np.full((dim, 2), -1, dtype=np.intp)
    pos[r, s % 2] = np.arange(len(r))
    return pos


# A ladder is an operator that maps each basis state to at most one basis
# state: per flat index t, the destination (-1 where t is annihilated) and the
# amplitude.  Every operator of the model is one, so each term of a sector
# block is a gather over the sector elements, with no matrix products.
Ladder = tuple[np.ndarray, np.ndarray]


def _ladders(n_max: int) -> tuple[Ladder, Ladder]:
    """Annihilators a and sigma as ladders on the flat basis 2n + i."""
    t = np.arange(2 * (n_max + 1))
    n, i = t // 2, t % 2
    return (np.where(n > 0, t - 2, -1), np.sqrt(n)), (np.where(i == 1, t - 1, -1), i.astype(float))


def _adjoint(op: Ladder) -> Ladder:
    dst, amp = op
    src = np.nonzero(dst >= 0)[0]
    out_dst, out_amp = np.full_like(dst, -1), np.zeros_like(amp)
    out_dst[dst[src]], out_amp[dst[src]] = src, np.conj(amp[src])
    return out_dst, out_amp


def _product(outer: Ladder, inner: Ladder) -> Ladder:
    """The ladder of outer @ inner."""
    (d2, a2), (d1, a1) = outer, inner
    mid = np.maximum(d1, 0)
    dst = np.where(d1 >= 0, d2[mid], -1)
    return dst, np.where(dst >= 0, a1 * a2[mid], 0.0)


def _sector_model(params: SystemParams, n_max: int) -> tuple[np.ndarray, Ladder, list]:
    """A = -iH - sum_c rate c'c / 2 as a diagonal plus a coupling ladder, and
    the (jump ladder, rate) pairs.

    H = -delta sigma'sigma + g (a'sigma + a sigma') couples |n,1> with
    |n+1,0> only, so its off-diagonal part is one ladder.
    """
    a, sig = _ladders(n_max)
    ad, sd = _adjoint(a), _adjoint(sig)
    jumps = [
        (a, params.gamma_a),
        (sig, params.gamma_sigma),
        (ad, params.P_a),
        (sd, params.P_sigma),
        (_product(sd, sig), params.gamma_phi),
    ]
    jumps = [(c, rate) for c, rate in jumps if rate]
    diag = 1j * params.delta * sig[1]
    for (_, amp), rate in jumps:
        diag = diag - (rate / 2.0) * np.abs(amp) ** 2
    up, down = _product(ad, sig), _product(a, sd)  # disjoint: emitter up or down
    coupling = (np.where(up[0] >= 0, up[0], down[0]), -1j * params.g * (up[1] + down[1]))
    return diag, coupling, jumps


@dataclass(frozen=True)
class SectorBlock:
    """Square sparse block as (row, col, data) entries; duplicates add up."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    size: int

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=complex)
        np.add.at(out, (self.row, self.col), self.data)
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.data * x[self.col]
        return np.bincount(self.row, y.real, self.size) + 1j * np.bincount(self.row, y.imag, self.size)


def sector_generator(
    params: SystemParams, n_max: int, k: int
) -> tuple[SectorBlock, np.ndarray, np.ndarray]:
    """Block of the Liouvillian on the excitation sector k, and its (r, s) pairs.

    Writes L rho = A rho + rho A' + sum_c rate c rho c' and gathers each
    term's entries from the ladders, column e = (r, s) at a time.
    """
    r, s = _sector_pairs(n_max, k)
    pos = _sector_position(r, s, 2 * (n_max + 1))
    diag, (cd, ca), jumps = _sector_model(params, n_max)
    e = np.arange(len(r))
    terms = [(e, e, diag[r] + np.conj(diag[s]))]  # (row, column, value) arrays per term
    # (A rho)_{u;s} gets A_{u;r} rho_{r;s}
    ok = cd[r] >= 0
    terms.append((pos[cd[r[ok]], s[ok] % 2], e[ok], ca[r[ok]]))
    # (rho A')_{r;u} gets rho_{r;s} conj(A_{u;s})
    ok = cd[s] >= 0
    terms.append((pos[r[ok], cd[s[ok]] % 2], e[ok], np.conj(ca[s[ok]])))
    # (c rho c')_{u;w} gets c_{u;r} rho_{r;s} conj(c_{w;s})
    for (dst, amp), rate in jumps:
        ok = (dst[r] >= 0) & (dst[s] >= 0)
        terms.append((pos[dst[r[ok]], dst[s[ok]] % 2], e[ok], rate * amp[r[ok]] * np.conj(amp[s[ok]])))
    rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
    return SectorBlock(rows, cols, vals, len(r)), r, s


@dataclass
class SteadyState:
    """Solved steady state: the k = 0 sector as per-rung arrays.

    ``p0[n]`` and ``p1[n]`` are the populations of |n,0> and |n,1>, and
    ``q_r[n] + i q_i[n]`` is the coherence rho_{n,0; n-1,1} (zero at n = 0),
    as in ``spectra.DensityMatrixSlices``; every other element vanishes by
    the excitation-number symmetry.
    ``herm_defect`` is max |x_{r;s} - conj(x_{s;r})| of the solved sector
    vector, taken before it was stored as Hermitian arrays.
    """

    params: SystemParams
    space: FockSpace
    p0: np.ndarray
    p1: np.ndarray
    q_r: np.ndarray
    q_i: np.ndarray
    herm_defect: float = 0.0

    @property
    def photon_distribution(self) -> np.ndarray:
        return self.p0 + self.p1

    def element(self, r: np.ndarray, s: np.ndarray) -> np.ndarray:
        """rho_{r;s} for flat indices of equal excitation number."""
        pops = np.empty(self.space.dim)
        pops[0::2], pops[1::2] = self.p0, self.p1
        n = np.maximum(r, s) // 2  # photon number of the |n,0> member
        q = self.q_r[n] + 1j * np.where(r < s, -self.q_i[n], self.q_i[n])
        return np.where(r == s, pops[r], q)

    @property
    def rho(self) -> np.ndarray:
        """Dense density matrix (built on each access)."""
        r, s = _sector_pairs(self.space.n_max, 0)
        out = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        out[r, s] = self.element(r, s)
        return out

    def q(self, n: int) -> complex:
        """Coherence rho_{n,0; n-1,1}, n >= 1."""
        self.space.index(n, 0)
        return complex(self.q_r[n], self.q_i[n])

    @property
    def n_a(self) -> float:
        return float(np.dot(np.arange(self.space.n_max + 1), self.photon_distribution))

    @property
    def n_sigma(self) -> float:
        return float(self.p1.sum())

    @property
    def g2(self) -> float:
        n = np.arange(self.space.n_max + 1)
        na2 = float(np.dot(n * (n - 1), self.photon_distribution))
        na = self.n_a
        return na2 / na**2 if na > 0.0 else 0.0

    def hermiticity_defect(self) -> float:
        return self.herm_defect

    def trace_defect(self) -> float:
        return abs(float(self.photon_distribution.sum()) - 1.0)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho)[0])


def _peak_guess(params: SystemParams) -> float:
    """Photon number near the peak of the distribution: the semiclassical n_a.

    It is 0 below threshold, where the distribution peaks at n = 0.
    """
    from .approximations import semiclassical

    try:
        return semiclassical(params).n_a
    except (ValueError, ZeroDivisionError):
        return 0.0


def _pinned_solve(G: SectorBlock, pos: np.ndarray, m: int) -> np.ndarray:
    """Null vector of the k = 0 block with the population T[m] set to one.

    One population equation is redundant, since the trace is conserved; it
    gives way to the pin.  A dense trace row instead would fill the band.
    The block couples excitation numbers N and N +- 1 only, so in excitation
    order it is banded and a banded LU solves it in O(n_max).
    """
    M = G.size
    d, d1 = pos[2 * m, 0], pos[2 * m + 1, 1]
    keep = G.row != d
    A = SectorBlock(
        np.concatenate([G.row[keep], [d, d]]),
        np.concatenate([G.col[keep], [d, d1]]),
        np.concatenate([G.data[keep], [1.0, 1.0]]),
        M,
    )
    kl, ku = int(np.max(A.row - A.col)), int(np.max(A.col - A.row))
    ab = np.zeros((2 * kl + ku + 1, M), dtype=complex)  # LAPACK band storage, kl rows of fill
    np.add.at(ab, (kl + ku + A.row - A.col, A.col), A.data)
    b = np.zeros(M, dtype=complex)
    b[d] = 1.0
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            lu, piv, info = zgbtrf(ab, kl, ku)
            if info > 0:
                raise NoSteadyStateError(f"singular Liouvillian: zero pivot {info} in the sector LU")
            x = zgbtrs(lu, kl, ku, b, piv)[0]
            for _ in range(2):  # refinement recovers the tiny tail components
                x += zgbtrs(lu, kl, ku, b - A @ x, piv)[0]
    except MemoryError as exc:
        raise SolverMemoryError(f"out of memory in the sector LU (size {M}): {exc}") from exc
    return x


def _steady_state_fixed(params: SystemParams, n_max: int) -> SteadyState:
    space = FockSpace(n_max)
    G, r, s = sector_generator(params, n_max, 0)
    pos = _sector_position(r, s, space.dim)
    n = np.arange(n_max + 1)
    m = min(int(round(_peak_guess(params))), n_max)
    x = _pinned_solve(G, pos, m)
    T = np.nan_to_num(np.abs(x[pos[2 * n, 0]] + x[pos[2 * n + 1, 1]]))
    if T.max() > 1e8:  # the guess sat far below the peak: pin the peak itself
        x = _pinned_solve(G, pos, int(np.argmax(T)))
    if not np.all(np.isfinite(x)):
        raise NoSteadyStateError("singular Liouvillian beyond the trace deficiency")
    diag = r == s
    x /= x[diag].sum()
    pops = np.zeros(space.dim)
    pops[r[diag]] = x[diag].real
    coh = s == r - 1  # rho_{n,0; n-1,1}
    q = np.zeros(n_max + 1, dtype=complex)
    q[r[coh] // 2] = x[coh]
    herm = max(
        float(np.max(np.abs(x[diag].imag))),
        float(np.max(np.abs(x[pos[s[coh], 0]] - np.conj(x[coh])), initial=0.0)),
    )
    return SteadyState(
        params=params, space=space, p0=pops[0::2], p1=pops[1::2], q_r=q.real, q_i=q.imag,
        herm_defect=herm,
    )


def _has_steady_state(params: SystemParams) -> bool:
    if params.P_a > 0.0 and params.P_a >= params.gamma_a:
        return False
    if params.gamma_a == 0.0 and params.P_a == 0.0 and params.P_sigma >= params.gamma_sigma:
        return False
    return True


def suggest_n_max(params: SystemParams) -> int:
    """Starting photon cutoff: three times the expected occupation plus slack.

    The occupation is the largest finite closed-form estimate, each held to
    the rate-balance bound n_a <= (P_a + P_sigma) / (gamma_a - P_a): the
    thermal form alone gives 3.3e6 photons for the vacuum at g = 1e-12.
    """
    from .approximations import semiclassical, statistics_root, thermal_na

    n_est = 1.0
    if params.gamma_a > 0.0:
        try:
            ests = [semiclassical(params).n_a, thermal_na(params).n_a, statistics_root(params, 2.0)]
        except (ValueError, ZeroDivisionError):
            ests = []
        gain = params.gamma_a - params.P_a
        bound = (params.P_a + params.P_sigma) / gain if gain > 0.0 else math.inf
        n_est = max([n_est] + [min(x, bound) for x in ests if math.isfinite(x)])
    elif params.gamma_sigma > params.P_sigma:
        n_est = max(n_est, params.P_sigma / (params.gamma_sigma - params.P_sigma))
    return int(math.ceil(3.0 * n_est)) + 10


def steady_state(
    params: SystemParams,
    n_max: int | None = None,
    n_max_cap: int = 2048,
    rtol: float = 1e-7,
    tail: float = 1e-12,
) -> SteadyState:
    """Steady state by banded LU; auto mode grows the cutoff until stable.

    Auto mode starts at ``suggest_n_max``, never above ``n_max_cap``, and
    doubles the cutoff.  Convergence requires the mean photon number to move
    less than ``rtol`` relative between successive cutoffs and the occupation
    of the last Fock state to fall below ``tail``.
    """
    if not _has_steady_state(params):
        raise NoSteadyStateError(
            "parameters admit no steady state (net gain exceeds loss)"
        )
    if n_max is not None:
        return _steady_state_fixed(params, n_max)
    n = min(suggest_n_max(params), n_max_cap)
    prev = None
    while n <= n_max_cap:
        ss = _steady_state_fixed(params, n)
        if prev is not None:
            ok_na = abs(ss.n_a - prev.n_a) <= rtol * max(abs(ss.n_a), 1e-300)
            ok_tail = ss.photon_distribution[-1] < tail
            if ok_na and ok_tail:
                return ss
        prev = ss
        n *= 2
    raise TruncationNotConvergedError(f"no convergence below photon cutoff {n_max_cap}")


# ---------------------------------------------------------------------------
# Quantum regression: spectral lines and spectra
# ---------------------------------------------------------------------------


@dataclass
class RegressionSector:
    """Generator block, initial condition and readout for one channel."""

    generator: np.ndarray
    u0: np.ndarray
    readout: np.ndarray
    n_c: float


def regression_sector(params: SystemParams, ss: SteadyState, channel: str) -> RegressionSector:
    """The k = 1 sector, which holds <c'(0) c(t)> for c = a or sigma.

    Its elements are the ladder operators' matrix elements; the initial
    condition is rho c' on the sector and the readout takes Tr(c .).
    """
    a, sig = _ladders(ss.space.n_max)
    if channel == "cavity":
        c = a
    elif channel == "emitter":
        c = sig
    else:
        raise ValueError(f"unknown channel {channel!r}")
    G, r, s = sector_generator(params, ss.space.n_max, 1)
    # (rho c')_{r;s} = rho_{r;t} (c')_{t;s}, where c' takes s to t alone
    dst, amp = c
    t, v = _adjoint(c)
    ok = t[s] >= 0
    u0 = np.zeros(len(r), dtype=complex)
    u0[ok] = ss.element(r[ok], t[s[ok]]) * v[s[ok]]
    readout = np.where(dst[r] == s, amp[r], 0.0)  # readout[e] = <s| c |r>
    n_c = float(np.real(np.dot(readout, u0)))
    return RegressionSector(generator=G.toarray(), u0=u0, readout=readout, n_c=n_c)


def _populated_cutoff(T: np.ndarray, rel: float = 1e-12, pad: int = 8) -> int:
    idx = np.nonzero(T > rel * T.max())[0]
    return int(idx[-1]) + pad if len(idx) else pad


def truncate_steady_state(ss: SteadyState, n_eff: int) -> SteadyState:
    """View of the steady state on a smaller photon ladder (no renorm)."""
    if n_eff >= ss.space.n_max:
        return ss
    k = n_eff + 1
    return replace(
        ss, space=FockSpace(n_eff), p0=ss.p0[:k], p1=ss.p1[:k], q_r=ss.q_r[:k], q_i=ss.q_i[:k]
    )


def spectral_lines(
    params: SystemParams,
    n_max: int | None = None,
    channel: str = "cavity",
    ss: SteadyState | None = None,
    weight_floor: float = 0.0,
) -> list[SpectralLine]:
    """Line decomposition of the emission spectrum for one channel.

    ``lineshape.decompose`` projects the steady-state initial condition on
    the eigenbasis of the coherence-sector block; weights are normalized by
    the channel population so they sum to one, and a table whose weights
    miss one by more than 1e-6 is refused.

    Unpopulated tail rungs carry no weight but their inner transitions pile
    up at the origin and wreck the eigenbasis conditioning, so the sector is
    first restricted to the populated ladder (occupation above 1e-12 of the
    peak, plus padding; restricting twice changes nothing).
    """
    if ss is None:
        ss = steady_state(params, n_max)
    ss = truncate_steady_state(ss, _populated_cutoff(ss.photon_distribution))
    sec = regression_sector(params, ss, channel)
    dec = decompose(sec.generator, sec.u0, sec.readout)
    return lines_from_eigenpairs(dec.lams, dec.weights / sec.n_c, weight_floor)


def elastic_weight_estimate(lines: list[SpectralLine], gamma_a: float) -> float:
    """Operational elastic weight: lines much narrower than the cavity.

    The exact engine has no true delta; the coherent fraction shows up as
    lines with widths far below gamma_a.
    """
    cut = gamma_a / 10.0
    return sum(ln.L for ln in lines if abs(ln.gamma) < cut)


def spectrum(
    params: SystemParams,
    n_max: int | None = None,
    channel: str = "cavity",
    omega: np.ndarray | None = None,
    ss: SteadyState | None = None,
) -> SpectrumResult:
    """Normalized emission spectrum on a grid, with its line table."""
    if ss is None:
        ss = steady_state(params, n_max)
    if omega is None:
        span = 3.0 * params.g * max(1.0, math.sqrt(max(ss.n_a, 1.0)))
        omega = np.linspace(-span, span, 2001)
    ss_l = truncate_steady_state(ss, _populated_cutoff(ss.photon_distribution))
    try:
        lines = spectral_lines(params, channel=channel, ss=ss_l)
        values = evaluate_lines(lines, omega)
    except NonDiagonalizableError:
        values = resolvent_spectrum(params, ss_l, channel, omega)
        lines = []
    return SpectrumResult(
        channel=channel,
        omega=np.asarray(omega, dtype=float),
        values=values,
        elastic_weight=elastic_weight_estimate(lines, params.gamma_a),
        lines=lines,
        method="exact",
        meta={"n_max": ss.space.n_max, "n_a": ss.n_a, "n_sigma": ss.n_sigma},
    )


def resolvent_spectrum(
    params: SystemParams, ss: SteadyState, channel: str, omega: np.ndarray
) -> np.ndarray:
    """S(w) from direct resolvent solves; no eigendecomposition involved."""
    sec = regression_sector(params, ss, channel)
    n = sec.generator.shape[0]
    out = np.empty(len(omega))
    eye = np.eye(n, dtype=complex)
    for i, w in enumerate(np.asarray(omega, dtype=float)):
        sol = np.linalg.solve(sec.generator + 1j * w * eye, sec.u0)
        out[i] = -np.real(np.dot(sec.readout, sol)) / (math.pi * sec.n_c)
    return out


@dataclass
class TransitionRow:
    P_sigma: float
    omega: float
    gamma: float
    L: float
    K: float


def transition_map(
    params: SystemParams,
    pumps: np.ndarray,
    channel: str = "cavity",
    n_max: int | None = None,
    weight_floor: float = 1e-10,
    n_max_cap: int = 2048,
    rtol: float = 1e-7,
) -> tuple[list[TransitionRow], list[tuple[float, str]]]:
    """Spectral-line table across a pump sweep (dressed-state map).

    ``n_max``, ``n_max_cap`` and ``rtol`` go to ``steady_state``.  Weights keep
    their sign.  Per-point failures are recorded and the sweep continues; the
    second return value lists (pump, message) failures.
    """
    rows: list[TransitionRow] = []
    failures: list[tuple[float, str]] = []
    for P in np.asarray(pumps, dtype=float):
        p = replace(params, P_sigma=float(P))
        try:
            ss = steady_state(p, n_max, n_max_cap=n_max_cap, rtol=rtol)
            for ln in spectral_lines(p, channel=channel, ss=ss, weight_floor=weight_floor):
                rows.append(TransitionRow(float(P), ln.omega, ln.gamma, ln.L, ln.K))
        except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
            failures.append((float(P), f"{type(exc).__name__}: {exc}"))
    return rows, failures
