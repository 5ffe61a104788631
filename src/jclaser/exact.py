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
  is the exact route behind every command.  The automatic cutoff is judged
  from the solution's own tail, with no closed-form estimate.  The LU is
  LAPACK's ``zgbtrf``/``zgbtrs`` from scipy's compiled ``_flapack``
  extension, the module ``scipy.linalg.lapack`` re-exports, loaded by
  ``_banded_lu`` without the ``scipy.linalg`` package.
- k = 1 holds the two-time correlators of the quantum regression theorem and
  has the same band.  Lines come from its dense eigendecomposition; where
  ``decompose`` refuses them, the spectrum grid comes from ``_band_solves``
  of the block shifted by i w, one banded LU per frequency.  The block is
  stored after a diagonal unit-phase similarity (the gauge sigma -> i sigma),
  which makes every entry real except the detuning's: at delta = 0 it is a
  float64 matrix, eigendecomposed in real arithmetic with its eigenvalues in
  exact conjugate pairs, while detuned blocks stay complex.

A block's values change with the rates, but nothing else does: its sparsity
pattern, the ladder amplitudes each term gathers and its band layout depend
only on the key (n_max, k, on), where ``on`` flags which of the five jump
rates are nonzero.  ``_sector_index`` builds that index once per key and
keeps eight in an LRU cache, with every array read-only, and
``sector_generator`` fills the values from the rates in the arithmetic order
of a fresh build, so a block from the cache is bit for bit a fresh one.  A
pump sweep changes one rate, so all its solves at one cutoff share an index.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, replace

import numpy as np
import scipy

from .errors import (
    JclaserError,
    NonDiagonalizableError,
    NoSteadyStateError,
    SolverMemoryError,
    TruncationNotConvergedError,
    ZeroPivotError,
)
from .lineshape import (
    SpectralLine,
    SpectrumResult,
    decompose,
    evaluate_lines,
    lines_from_eigenpairs,
)
from .params import SystemParams


def _banded_lu():
    """``zgbtrf`` and ``zgbtrs`` from scipy's compiled LAPACK wrappers,
    loaded on their own.

    ``scipy.linalg.lapack`` re-exports this very extension module, so its
    routines are scipy's own; importing them through that package would run
    the whole ``scipy.linalg`` init, ~0.3 s of every command.  ``import
    scipy`` alone runs scipy's ``_distributor_init``, which makes its bundled
    OpenBLAS findable.
    """
    path = os.path.join(
        os.path.dirname(scipy.__file__), "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0]
    )
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK extension not found at {path}", path=path)
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.zgbtrf, module.zgbtrs


zgbtrf, zgbtrs = _banded_lu()


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


def _jump_rates(params: SystemParams) -> tuple[float, ...]:
    """Rates of the jumps a, sigma, a', sigma' and sigma'sigma, in that order."""
    return params.gamma_a, params.gamma_sigma, params.P_a, params.P_sigma, params.gamma_phi


@dataclass(frozen=True)
class _SectorIndex:
    """Everything of a sector block but its values: the sparsity pattern,
    the ladder amplitudes each term gathers, and the widths of its band.

    Entries are concatenated per term: the diagonal, the coupling of A rho
    and of rho A', then one run per jump that is on.
    """

    r: np.ndarray
    s: np.ndarray
    pos: np.ndarray
    row: np.ndarray
    col: np.ndarray
    emitter: np.ndarray  # sigma'sigma over the flat basis, for the detuning
    occupation: tuple  # |amp|^2 of each jump that is on, over the flat basis
    coupling: tuple  # (a'sigma + a sigma') amplitudes at the r, then the s, of its entries
    jumps: tuple  # per jump that is on, its amplitudes at the r and the s of its entries
    kl: int  # sub-diagonals
    ku: int  # super-diagonals


# auto cutoffs double from 32 up to the default cap of 2048, seven k = 0 keys
# that a sweep visits over and over; a spectrum adds its k = 1 index
@functools.lru_cache(maxsize=8)
def _sector_index(n_max: int, k: int, on: tuple[bool, ...]) -> _SectorIndex:
    """The index of sector k at cutoff n_max; ``on`` flags which rates of
    ``_jump_rates`` are nonzero.  Every array is read-only, as calls share it."""
    r, s = _sector_pairs(n_max, k)
    pos = _sector_position(r, s, 2 * (n_max + 1))
    a, sig = _ladders(n_max)
    ad, sd = _adjoint(a), _adjoint(sig)
    jumps = [c for c, c_on in zip((a, sig, ad, sd, _product(sd, sig)), on) if c_on]
    # H = -delta sigma'sigma + g (a'sigma + a sigma') couples |n,1> with
    # |n+1,0> only, so its off-diagonal part is one ladder
    up, down = _product(ad, sig), _product(a, sd)  # disjoint: emitter up or down
    cd, ca = np.where(up[0] >= 0, up[0], down[0]), up[1] + down[1]
    e = np.arange(len(r))
    rows, cols = [e], [e]
    # (A rho)_{u;s} gets A_{u;r} rho_{r;s}
    ok_r = cd[r] >= 0
    rows.append(pos[cd[r[ok_r]], s[ok_r] % 2])
    # (rho A')_{r;u} gets rho_{r;s} conj(A_{u;s})
    ok_s = cd[s] >= 0
    rows.append(pos[r[ok_s], cd[s[ok_s]] % 2])
    cols += [e[ok_r], e[ok_s]]
    amps = []
    # (c rho c')_{u;w} gets c_{u;r} rho_{r;s} conj(c_{w;s})
    for dst, amp in jumps:
        ok = (dst[r] >= 0) & (dst[s] >= 0)
        rows.append(pos[dst[r[ok]], dst[s[ok]] % 2])
        cols.append(e[ok])
        amps.append((amp[r[ok]], amp[s[ok]]))
    row, col = np.concatenate(rows), np.concatenate(cols)
    ix = _SectorIndex(
        r=r, s=s, pos=pos, row=row, col=col, emitter=sig[1],
        occupation=tuple(np.abs(amp) ** 2 for _, amp in jumps),
        coupling=(ca[r[ok_r]], ca[s[ok_s]]), jumps=tuple(amps),
        kl=int(np.max(row - col)), ku=int(np.max(col - row)),
    )
    for x in (r, s, pos, row, col, ix.emitter, *ix.occupation, *ix.coupling, *sum(amps, ())):
        x.flags.writeable = False
    return ix


def _band_storage(row: np.ndarray, col: np.ndarray, data: np.ndarray, size: int, kl: int, ku: int) -> np.ndarray:
    """LAPACK band storage of the entries (row, col, data), with kl rows of fill."""
    ab = np.zeros((2 * kl + ku + 1, size), dtype=complex)
    np.add.at(ab, (kl + ku + row - col, col), data)
    return ab


@dataclass(frozen=True)
class SectorBlock:
    """Square sparse block: ``data`` on the entries of its index; duplicates add up."""

    index: _SectorIndex
    data: np.ndarray

    @property
    def size(self) -> int:
        return len(self.index.r)

    @property
    def shape(self) -> tuple[int, int]:
        return self.size, self.size

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.index.row, self.index.col), self.data)
        return out

    def band(self) -> tuple[int, int, np.ndarray]:
        """(kl, ku, ab): the LAPACK band storage ab of the block."""
        ix = self.index
        return ix.kl, ix.ku, _band_storage(ix.row, ix.col, self.data, self.size, ix.kl, ix.ku)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.data * x[self.index.col]
        return np.bincount(self.index.row, y.real, self.size) + 1j * np.bincount(self.index.row, y.imag, self.size)


def sector_generator(
    params: SystemParams, n_max: int, k: int
) -> tuple[SectorBlock, np.ndarray, np.ndarray]:
    """Block of the Liouvillian on the excitation sector k, and its (r, s) pairs.

    Writes L rho = A rho + rho A' + sum_c rate c rho c', with
    A = -iH - sum_c rate c'c / 2, and fills each term's entries from the
    ladder amplitudes that the cached index gathered, column e = (r, s) at
    a time.
    """
    rates = _jump_rates(params)
    ix = _sector_index(n_max, k, tuple(bool(rate) for rate in rates))
    rates = [rate for rate in rates if rate]
    diag = 1j * params.delta * ix.emitter
    for occ, rate in zip(ix.occupation, rates):
        diag = diag - (rate / 2.0) * occ
    coupling = -1j * params.g
    values = [diag[ix.r] + np.conj(diag[ix.s]), coupling * ix.coupling[0], np.conj(coupling * ix.coupling[1])]
    values += [rate * amp_r * np.conj(amp_s) for (amp_r, amp_s), rate in zip(ix.jumps, rates)]
    return SectorBlock(ix, np.concatenate(values)), ix.r, ix.s


@dataclass
class SteadyState:
    """Steady state as per-rung arrays: the one density-matrix record.

    ``p0[n]`` and ``p1[n]`` are the populations of |n,0> and |n,1>, and
    ``q_r[n] + i q_i[n]`` is the coherence rho_{n,0; n-1,1} (zero at n = 0);
    every other element vanishes by the excitation-number symmetry.  The
    sector solve fills it, or ``spectra.density_slices_from_statistics``.
    ``herm_defect`` is max |x_{r;s} - conj(x_{s;r})| of the solved sector
    vector before it was stored as Hermitian arrays (0 if reconstructed).
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
        # na**2 underflows below 1e-154; the vacuum's <a'a'aa>/n_a^2 is 0/0
        return na2 / na / na if na > 0.0 else math.nan

    def hermiticity_defect(self) -> float:
        return self.herm_defect

    def trace_defect(self) -> float:
        return abs(float(self.photon_distribution.sum()) - 1.0)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho)[0])


@dataclass(frozen=True)
class _PinnedBlock:
    """The k = 0 block G with its row d given way to the pin x[d] + x[d1]."""

    G: SectorBlock
    d: int
    d1: int

    @property
    def size(self) -> int:
        return self.G.size

    def band(self) -> tuple[int, int, np.ndarray]:
        """The band of G's entries off row d and the two pin entries, as wide as they need."""
        ix, d, d1 = self.G.index, self.d, self.d1
        keep = ix.row != d
        row, col = ix.row[keep], ix.col[keep]
        off = row - col
        kl, ku = max(int(off.max(initial=0)), d - d1), max(int(-off.min(initial=0)), d1 - d)
        ab = _band_storage(row, col, self.G.data[keep], self.size, kl, ku)
        ab[kl + ku, d] = ab[kl + ku + d - d1, d1] = 1.0
        return kl, ku, ab

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.G @ x
        y[self.d] = x[self.d] + x[self.d1]
        return y


def _band_solves(A: SectorBlock | _PinnedBlock, b: np.ndarray, shifts=(0.0,), refine: int = 0):
    """Solutions of (A + i w) x = b, one per shift w, by LAPACK banded LU.

    A sector block couples excitation numbers N and N +- 1 only, so in
    excitation order it is banded: each shift is one O(size) factor of the
    band with its main diagonal moved, plus ``refine`` refinement steps.
    """
    M = A.size
    try:
        kl, ku, ab = A.band()
        diag = ab[kl + ku].copy()
        for w in shifts:
            ab[kl + ku] = diag + 1j * w
            with np.errstate(invalid="ignore", over="ignore"):
                lu, piv, info = zgbtrf(ab, kl, ku)
                if info > 0:
                    raise ZeroPivotError(f"zero pivot {info} in the banded LU (size {M}, shift {w:g}i)")
                x = zgbtrs(lu, kl, ku, b, piv)[0]
                for _ in range(refine):
                    x += zgbtrs(lu, kl, ku, b - A @ x - 1j * w * x, piv)[0]
            yield x
    except MemoryError as exc:
        raise SolverMemoryError(f"out of memory in the banded LU (size {M}): {exc}") from exc


def _pinned_solve(G: SectorBlock, pos: np.ndarray, m: int) -> np.ndarray:
    """Null vector of the k = 0 block with the population T[m] set to one.

    One population equation is redundant, since the trace is conserved; it
    gives way to the pin.  A dense trace row instead would fill the band.
    Two refinement steps recover the tiny tail components.  A solution
    that is not finite comes from a pivot too small to factor by, and
    raises as a zero pivot does.
    """
    d, d1 = int(pos[2 * m, 0]), int(pos[2 * m + 1, 1])
    b = np.zeros(G.size, dtype=complex)
    b[d] = 1.0
    try:
        x = next(_band_solves(_PinnedBlock(G, d, d1), b, refine=2))
    except ZeroPivotError as exc:
        raise NoSteadyStateError(f"singular Liouvillian: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NoSteadyStateError(f"singular Liouvillian: a near-zero pivot in the banded LU (size {G.size})")
    return x


def _steady_state_fixed(params: SystemParams, n_max: int, pin: int = 0) -> SteadyState:
    space = FockSpace(n_max)
    G, r, s = sector_generator(params, n_max, 0)
    pos = G.index.pos
    n = np.arange(n_max + 1)
    try:
        x = _pinned_solve(G, pos, pin)
    except NoSteadyStateError:  # a zero pivot at the pin: pin the top rung once
        x = _pinned_solve(G, pos, n_max)
    T = np.abs(x[pos[2 * n, 0]] + x[pos[2 * n + 1, 1]])
    if T.max() > 1e8:  # the pin sat far below the peak: pin the peak itself
        x = _pinned_solve(G, pos, int(np.argmax(T)))
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


def _tail_converged(T: np.ndarray, rtol: float, tail: float) -> bool:
    """Whether the photon distribution beyond the cutoff N is negligible.

    T continues geometrically past N with its last decay ratio
    r = T[N] / T[N-1]; the factorial moments n and n(n-1) it would add must
    stay below ``rtol`` of those of T, and T[N] itself below ``tail``.
    """
    N = len(T) - 1
    t, prev = abs(float(T[N])), abs(float(T[N - 1]))
    if t == 0.0:
        return True
    if not (t < tail and t < prev):
        return False
    r = t / prev
    s0, s1, s2 = r / (1 - r), r / (1 - r) ** 2, r * (1 + r) / (1 - r) ** 3  # sum of k^j r^k, k >= 1
    n = np.arange(N + 1)
    m1, m2 = float(np.dot(n, T)), float(np.dot(n * (n - 1), T))
    return t * (N * s0 + s1) <= rtol * m1 and t * (N * (N - 1) * s0 + (2 * N - 1) * s1 + s2) <= rtol * m2


# First photon cutoff of auto mode; each refused round doubles it.
_N_START = 32
_TAIL = 1e-12  # largest top-Fock-state population auto mode accepts


def steady_state(
    params: SystemParams,
    n_max: int | None = None,
    n_max_cap: int = 2048,
    rtol: float = 1e-7,
) -> SteadyState:
    """Steady state by banded LU; auto mode grows the cutoff until the
    solution's own tail shows it is wide enough.

    A fixed ``n_max`` is solved once with the vacuum population pinned.
    Auto mode starts at 32 photons and accepts a solve when its top Fock
    state holds under 1e-12 and the geometric continuation of its tail
    adds less than ``rtol`` to n and n(n-1).  Otherwise the cutoff doubles,
    up to and including ``n_max_cap``, pinned at the previous peak.
    """
    if not _has_steady_state(params):
        raise NoSteadyStateError(
            "parameters admit no steady state (net gain exceeds loss)"
        )
    if n_max is not None:
        return _steady_state_fixed(params, n_max)
    n, pin = min(_N_START, n_max_cap), 0
    while True:
        ss = _steady_state_fixed(params, n, pin)
        T = ss.photon_distribution
        if _tail_converged(T, rtol, _TAIL):
            return ss
        if n >= n_max_cap:
            raise TruncationNotConvergedError(f"no convergence below photon cutoff {n_max_cap}")
        n, pin = min(2 * n, n_max_cap), int(np.argmax(T))


# ---------------------------------------------------------------------------
# Quantum regression: spectral lines and spectra
# ---------------------------------------------------------------------------


@dataclass
class RegressionSector:
    """Generator block, initial condition and readout for one channel, in the
    phase gauge of ``regression_sector``."""

    generator: SectorBlock
    u0: np.ndarray
    readout: np.ndarray

    def lines(self, weight_floor: float = 0.0) -> list[SpectralLine]:
        """Lines from ``decompose`` of the densified block, weights over n_c."""
        try:
            dec = decompose(self.generator.toarray(), self.u0, self.readout)
        except MemoryError as exc:
            M = len(self.u0)
            raise SolverMemoryError(f"out of memory in the dense eig (size {M}): {exc}") from exc
        return lines_from_eigenpairs(dec.lams, dec.weights / dec.n_c, weight_floor)


# i^e for e = i(r) - i(s) in {-1, 0, 1}, by lookup so that every phase is exact
_PHASES = np.array([-1j, 1.0, 1j])


def regression_sector(params: SystemParams, ss: SteadyState, channel: str) -> RegressionSector:
    """The k = 1 sector, which holds <c'(0) c(t)> for c = a or sigma.

    Its elements are the ladder operators' matrix elements; the initial
    condition is rho c' on the sector and the readout takes Tr(c .).

    Unpopulated tail rungs carry no weight but their inner transitions pile
    up at the origin and wreck the eigenbasis conditioning, so the sector is
    built on the populated ladder only (occupation above 1e-12 of the peak,
    plus padding; restricting twice changes nothing).

    The block is returned as G' = D^-1 G D with d_e = i^(i(r) - i(s)), i(.)
    the emitter state, with u0 / d and readout * d, so readout . x and every
    eigenvalue are unchanged.  The similarity is exact: the coupling entries
    of -iH, -i g sqrt(n), become real, each jump term moves the emitter of r
    and s alike and keeps its phase, and only the detuning's -i delta
    sigma'sigma leaves an imaginary diagonal.  Where no imaginary part is
    left, at delta = 0, the block is stored as float64, so ``decompose``
    runs a real eig about twice as fast, with its lines in exact mirror
    pairs w, -w.
    """
    ss = truncate_steady_state(ss, _populated_cutoff(ss.photon_distribution))
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
    d = _PHASES[r % 2 - s % 2 + 1]  # 1 / d = conj(d) exactly
    data = G.data * (d[G.index.col] * np.conj(d[G.index.row]))
    if not np.any(data.imag):
        data = data.real.copy()
    G = replace(G, data=data)
    return RegressionSector(generator=G, u0=u0 * np.conj(d), readout=readout * d)


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
    the channel population n_c so they sum to one, and a table whose weights
    miss one by more than 1e-6 is refused.
    """
    if ss is None:
        ss = steady_state(params, n_max)
    return regression_sector(params, ss, channel).lines(weight_floor)


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
    """Normalized emission spectrum on a grid, with its line table; after a
    refused table the grid is the banded resolvent and ``meta`` says why.
    ``meta["grid_integral"]`` is the trapezoid integral of the grid values,
    and ``meta["eig_form"]`` reads "real" or "complex", the arithmetic of the
    block's eigendecomposition."""
    if ss is None:
        ss = steady_state(params, n_max)
    if omega is None:
        span = 3.0 * params.g * max(1.0, math.sqrt(max(ss.n_a, 1.0)))
        omega = np.linspace(-span, span, 2001)
    sec = regression_sector(params, ss, channel)
    meta = {
        "n_max": ss.space.n_max, "n_a": ss.n_a, "n_sigma": ss.n_sigma, "grid_source": "line_table",
        "eig_form": "real" if np.isrealobj(sec.generator.data) else "complex",
    }
    try:
        lines = sec.lines()
        values = evaluate_lines(lines, omega)
    except NonDiagonalizableError as exc:
        lines = []
        values = resolvent_spectrum(sec, omega)
        meta.update(grid_source="banded_resolvent", refusal=str(exc))
    # far from one when the grid misses a line or steps over a narrow one
    meta["grid_integral"] = float(np.trapezoid(values, omega))
    return SpectrumResult(
        channel=channel,
        omega=np.asarray(omega, dtype=float),
        values=values,
        elastic_weight=elastic_weight_estimate(lines, params.gamma_a),
        lines=lines,
        method="exact",
        meta=meta,
    )


def resolvent_spectrum(sec: RegressionSector, omega: np.ndarray) -> np.ndarray:
    """S(w) = -Re readout . (G + i w)^-1 u0 / (pi n_c), one banded LU per w.

    Exact for any conditioning of the eigenbasis; no eigendecomposition.
    """
    n_c = float(np.real(np.dot(sec.readout, sec.u0)))
    sols = _band_solves(sec.generator, sec.u0, np.asarray(omega, dtype=float))
    return np.array([-np.real(np.dot(sec.readout, x)) for x in sols]) / (math.pi * n_c)


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
    their sign.  A ``JclaserError`` at one pump is recorded and the sweep
    continues; the second return value lists (pump, message) failures.
    Other exceptions are caller or program errors and propagate.
    """
    if channel not in ("cavity", "emitter"):
        raise ValueError(f"unknown channel {channel!r}")
    rows: list[TransitionRow] = []
    failures: list[tuple[float, str]] = []
    for P in np.asarray(pumps, dtype=float):
        p = replace(params, P_sigma=float(P))
        try:
            ss = steady_state(p, n_max, n_max_cap=n_max_cap, rtol=rtol)
            for ln in spectral_lines(p, channel=channel, ss=ss, weight_floor=weight_floor):
                rows.append(TransitionRow(float(P), ln.omega, ln.gamma, ln.L, ln.K))
        except JclaserError as exc:
            failures.append((float(P), f"{type(exc).__name__}: {exc}"))
    return rows, failures
