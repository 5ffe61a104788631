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
  has the same band.  An empty channel is refused as the sector is built.
  Lines come from its dense eigendecomposition; where ``decompose`` refuses
  them, the spectrum grid comes from ``resolvent_spectrum``, one banded LU
  of the block shifted by i w per frequency; ``_band_solve`` factors and
  solves the bands of both sectors.  The block is stored after a diagonal
  unit-phase similarity (the gauge sigma -> i sigma), which makes every
  entry real except the detuning's: at delta = 0 it is a float64 matrix,
  eigendecomposed in real arithmetic with its eigenvalues in exact
  conjugate pairs, while detuned blocks stay complex.

A block's values change with the rates, but nothing else does: its sparsity
pattern, the ladder amplitudes each term gathers and its band layout depend
only on the key (n_max, k, on), where ``on`` flags which of the five jump
rates are nonzero.  ``_sector_index`` builds that index once per key and
keeps eight in an LRU cache, with every array read-only, and
``sector_generator`` fills the values from the rates in the arithmetic order
of a fresh build, so a block from the cache is bit for bit a fresh one.  A
pump sweep changes one rate, so all its solves at one cutoff share an index.
``steady_state_sweep`` solves the steady states of a pump axis in batches
per cutoff round, eight pumps at the first cutoff and fewer as the blocks
grow: the pumps of a batch fill their values in one broadcast over the
index, share one scatter into band storage and one product per refinement
step, and are factored one by one.  Retries, the trace and the cutoff test
stay per pump, so each state is bit for bit the one its pump gets alone;
``steady_state`` is the one-pump batch.

The one dense eig, in ``RegressionSector.lines``, runs with OpenBLAS held
at one thread by ``lineshape.one_blas_thread``, so its bits do not depend on
the OpenBLAS thread count.  ``transition_map`` decomposes its pumps' k = 1
blocks on the caller and a pool made for the call, one thread per further
core, bit for bit as a serial loop would; without an OpenBLAS thread
control, or on one core, the caller takes them all.
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
    channel_population,
    decompose,
    evaluate_lines,
    lines_from_eigenpairs,
    one_blas_thread,
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


def _jump_rates(params: SystemParams, P_sigma=None) -> tuple:
    """Rates of the jumps a, sigma, a', sigma' and sigma'sigma, in that order;
    ``P_sigma`` stands in for the emitter pump of ``params`` if given."""
    pump = params.P_sigma if P_sigma is None else P_sigma
    return params.gamma_a, params.gamma_sigma, params.P_a, pump, params.gamma_phi


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
    population: np.ndarray  # the elements with r = s
    coherence: np.ndarray  # the elements with s = r - 1, at k = 0 the rho_{n,0; n-1,1}
    off: np.ndarray  # row - col of each entry
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
        population=np.flatnonzero(r == s), coherence=np.flatnonzero(s == r - 1),
        off=row - col, kl=int(np.max(row - col)), ku=int(np.max(col - row)),
    )
    for x in (r, s, pos, row, col, ix.emitter, *ix.occupation, *ix.coupling, *sum(amps, ()),
              ix.population, ix.coherence, ix.off):
        x.flags.writeable = False
    return ix


def _band_storage(ix: _SectorIndex, data: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """LAPACK band storage, with kl rows of fill, of all entries of ``ix``
    (kl >= ix.kl, ku >= ix.ku); 2-D ``data`` gives one band per row.
    Duplicate entries add up in entry order, from zero."""
    shape = data.shape[:-1] + (2 * kl + ku + 1, len(ix.r))
    cell = (kl + ku + ix.off) * shape[-1] + ix.col
    values = data.reshape(-1, len(cell))
    size = shape[-2] * shape[-1]
    cells = (cell + size * np.arange(len(values))[:, None]).ravel()
    ab = np.empty(len(values) * size, dtype=complex)
    ab.real = np.bincount(cells, values.real.ravel(), len(ab))
    ab.imag = np.bincount(cells, values.imag.ravel(), len(ab))
    return ab.reshape(shape)


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


def sector_generator(params: SystemParams, n_max: int, k: int) -> SectorBlock:
    """Block of the Liouvillian on the excitation sector k; its (r, s) pairs
    are ``block.index.r`` and ``block.index.s``.

    Writes L rho = A rho + rho A' + sum_c rate c rho c', with
    A = -iH - sum_c rate c'c / 2, and fills each term's entries from the
    ladder amplitudes that the cached index gathered, column e = (r, s) at
    a time.
    """
    rates = _jump_rates(params)
    ix = _sector_index(n_max, k, tuple(bool(rate) for rate in rates))
    data = _sector_values(ix, [rate for rate in rates if rate], params.delta, params.g)
    return SectorBlock(ix, data)


def _sector_values(ix: _SectorIndex, rates: list, delta: float, g: float) -> np.ndarray:
    """Values of the entries of ``ix`` at the jump rates that are on.

    A rate may be a column of B values, which fills B blocks at once, one
    row each; elementwise broadcasting keeps every row bit for bit the block
    of its scalar rates.
    """
    diag = 1j * delta * ix.emitter
    for occ, rate in zip(ix.occupation, rates):
        diag = diag - (rate / 2.0) * occ
    coupling = -1j * g
    values = [diag[..., ix.r] + np.conj(diag[..., ix.s]), coupling * ix.coupling[0], np.conj(coupling * ix.coupling[1])]
    values += [rate * amp_r * np.conj(amp_s) for (amp_r, amp_s), rate in zip(ix.jumps, rates)]
    out = np.empty(diag.shape[:-1] + ix.row.shape, dtype=complex)
    start = 0
    for v in values:
        out[..., start : start + v.shape[-1]] = v
        start += v.shape[-1]
    return out


@dataclass
class SteadyState:
    """Steady state as per-rung arrays: the one density-matrix record.

    ``p0[n]`` and ``p1[n]`` are the populations of |n,0> and |n,1>, and
    ``q_r[n] + i q_i[n]`` is the coherence rho_{n,0; n-1,1} (zero at n = 0);
    every other element vanishes by the excitation-number symmetry.  The
    sector solve fills it, or ``spectra.density_slices_from_statistics``.
    ``herm_defect`` is max |x_{r;s} - conj(x_{s;r})| of the solved sector
    vector before it was stored as Hermitian arrays (0 if reconstructed).
    The photon ladder ``space`` is that of the arrays.
    """

    params: SystemParams
    p0: np.ndarray
    p1: np.ndarray
    q_r: np.ndarray
    q_i: np.ndarray
    herm_defect: float = 0.0

    @property
    def space(self) -> FockSpace:
        return FockSpace(len(self.p0) - 1)

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

    @property
    def n_a(self) -> float:
        return float(np.dot(np.arange(len(self.p0)), self.photon_distribution))

    @property
    def n_sigma(self) -> float:
        return float(self.p1.sum())

    @property
    def g2(self) -> float:
        n = np.arange(len(self.p0))
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


def _band_solve(ab: np.ndarray, kl: int, ku: int, b: np.ndarray, shift: float = 0.0) -> tuple:
    """LAPACK banded LU of the band storage ``ab`` and x of ``ab`` x = b, as (lu, piv, x); a zero pivot raises."""
    lu, piv, info = zgbtrf(ab, kl, ku)
    if info > 0:
        raise ZeroPivotError(f"zero pivot {info} in the banded LU (size {ab.shape[1]}, shift {shift:g}i)")
    return lu, piv, zgbtrs(lu, kl, ku, b, piv)[0]


def _pinned_solves(ix: _SectorIndex, data: np.ndarray, pins) -> tuple[np.ndarray, list]:
    """Null vectors x[i] of the k = 0 blocks, one per row of ``data``, each
    with the population T[pins[i]] set to one, and per block None or the
    ``NoSteadyStateError`` or ``SolverMemoryError`` that refused it.

    One population equation is redundant, since the trace is conserved; row
    d, that of |m,0><m,0|, gives way to the pin x[d] + x[d1].  A dense trace
    row instead would fill the band.  The blocks share one scatter into band
    storage, wide enough for every pin, and one product per refinement step;
    each is factored on its own.  Two refinement steps recover the tiny tail
    components.  A solution that is not finite comes from a pivot too small
    to factor by, and is refused as a zero pivot is.
    """
    B, M = len(data), len(ix.r)
    m = np.asarray(pins, dtype=np.intp)
    d, d1 = ix.pos[:, 0][2 * m], ix.pos[:, 1][2 * m + 1]
    kl, ku = max(ix.kl, int(np.max(d - d1))), max(ix.ku, int(np.max(d1 - d)))
    at = M * np.arange(B)  # where each block's vector starts in the flat x and b
    x, b = np.zeros(B * M, dtype=complex), np.zeros(B * M, dtype=complex)
    xs, bs = x.reshape(B, M), b.reshape(B, M)
    b[at + d] = 1.0
    errors: list = [None] * B
    lus = {}
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            ab = _band_storage(ix, data, kl, ku)
            for i in range(B):
                di, d1i = int(d[i]), int(d1[i])
                # row d's cells (kl + ku + d - j, j), j = d - kl ... d + ku, are
                # one stride of the flattened band
                lo, hi = max(0, di - kl), min(M - 1, di + ku)
                ab[i].reshape(-1)[(kl + ku + di) * M - hi * (M - 1) : (kl + ku + di - lo) * M + lo + 1 : M - 1] = 0.0
                ab[i, kl + ku, di] = ab[i, kl + ku + di - d1i, d1i] = 1.0
                try:
                    lu, piv, xs[i] = _band_solve(ab[i], kl, ku, bs[i])
                except ZeroPivotError as exc:
                    errors[i] = NoSteadyStateError(f"singular Liouvillian: {exc}")
                    continue
                lus[i] = lu, piv
            entries = data.ravel()
            cols, rows = (ix.col + at[:, None]).ravel(), (ix.row + at[:, None]).ravel()
            d, d1 = at + d, at + d1
            for _ in range(2):
                y = entries * x[cols]
                Ax = np.bincount(rows, y.real, B * M) + 1j * np.bincount(rows, y.imag, B * M)
                Ax[d] = x[d] + x[d1]
                # - 0j * x: the signs of zero of b - (A + i w) x at w = 0
                residual = (b - Ax - 0j * x).reshape(B, M)
                for i, (lu, piv) in lus.items():
                    xs[i] += zgbtrs(lu, kl, ku, residual[i], piv)[0]
    except MemoryError as exc:
        return xs, [SolverMemoryError(f"out of memory in the banded LU (size {M}): {exc}") for _ in range(B)]
    finite = np.isfinite(xs).all(axis=1)
    for i in lus:
        if not finite[i]:
            errors[i] = NoSteadyStateError(f"singular Liouvillian: a near-zero pivot in the banded LU (size {M})")
    return xs, errors


def _fixed_cutoff_states(ps: list[SystemParams], n_max: int, pins: list[int]) -> list:
    """Steady states at cutoff ``n_max`` of rates that differ in P_sigma
    alone and share which of them are zero, each first pinned at its rung of
    ``pins``: a ``SteadyState`` or a ``JclaserError`` per entry of ``ps``.

    A zero pivot at the pin is retried once pinned at the top rung, and a
    solution that grows above 1e8 is solved again pinned at its peak.
    """
    on = tuple(bool(rate) for rate in _jump_rates(ps[0]))
    ix = _sector_index(n_max, 0, on)
    # a column of pumps fills one row of values per pump; without the pump
    # one row of values stands for all
    pumps = np.array([[p.P_sigma] for p in ps])
    rates = [rate for rate, rate_on in zip(_jump_rates(ps[0], pumps), on) if rate_on]
    data = _sector_values(ix, rates, ps[0].delta, ps[0].g)
    if data.ndim == 1:
        data = np.broadcast_to(data, (len(ps), len(ix.row)))
    x, errors = _pinned_solves(ix, data, pins)

    def again(blocks: list[int], at: list[int]) -> None:
        if blocks:
            x[blocks], redone = _pinned_solves(ix, data[blocks], at)
            for i, err in zip(blocks, redone):
                errors[i] = err

    retry = [i for i, err in enumerate(errors) if isinstance(err, NoSteadyStateError)]
    again(retry, [n_max] * len(retry))
    far, peaks = [], []
    T0, T1 = ix.pos[0::2, 0], ix.pos[1::2, 1]  # where |n,0> and |n,1> sit in the sector
    for i, err in enumerate(errors):
        if err is None:
            T = np.abs(x[i][T0] + x[i][T1])
            if T.max() > 1e8:  # the pin sat far below the peak: pin the peak itself
                far.append(i)
                peaks.append(int(np.argmax(T)))
    again(far, peaks)
    good = [i for i, err in enumerate(errors) if err is None]
    for i, ss in zip(good, _steady_states_of([ps[i] for i in good], ix, x[good])):
        errors[i] = ss
    return errors


def _steady_states_of(ps: list[SystemParams], ix: _SectorIndex, x: np.ndarray) -> list[SteadyState]:
    """The ``SteadyState`` of each row of k = 0 sector vectors x, divided by its trace."""
    r, s, pos, diag, coh = ix.r, ix.s, ix.pos, ix.population, ix.coherence
    space = FockSpace(len(pos) // 2 - 1)
    at_pops, at_q = r[diag], r[coh] // 2
    partner = pos[s[coh], 0]  # rho_{n-1,1; n,0}, the mirror of each coherence
    states = []
    for params, xi in zip(ps, x):
        xi /= xi[diag].sum()
        pops = np.zeros(space.dim)
        pops[at_pops] = xi[diag].real
        q = np.zeros(space.n_max + 1, dtype=complex)
        q[at_q] = xi[coh]
        herm = max(
            float(np.max(np.abs(xi[diag].imag))),
            float(np.max(np.abs(xi[partner] - np.conj(xi[coh])), initial=0.0)),
        )
        states.append(SteadyState(
            params=params, p0=pops[0::2], p1=pops[1::2], q_r=q.real, q_i=q.imag, herm_defect=herm,
        ))
    return states


def _no_steady_state(params: SystemParams) -> str:
    """Why the rates admit no unique steady state, or "" where they do."""
    lossless = params.gamma_a == params.P_a == 0.0
    if lossless and params.P_sigma == params.gamma_sigma == 0.0:
        return "parameters admit no unique steady state (nothing pumps or damps the system)"
    if 0.0 < params.P_a >= params.gamma_a or lossless and params.P_sigma >= params.gamma_sigma:
        return "parameters admit no steady state (net gain exceeds loss)"
    return ""


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
# Block rows that one batch of a cutoff round solves together, eight blocks
# at the first cutoff.  A batch holds ~750 bytes of work arrays per row,
# ~0.8 MB; from n_max 256 on each pump goes alone, where a fixed count of
# pumps would hold that count times the ~6 MB of one solve at n_max 2048.
_BATCH_ROWS = 8 * (4 * _N_START + 2)


def steady_state_sweep(
    params: SystemParams,
    pumps,
    n_max: int | None = None,
    n_max_cap: int = 2048,
    rtol: float = 1e-7,
) -> list:
    """Steady states at each emitter pump P_sigma of ``pumps``, with the other
    rates of ``params``: per pump the ``SteadyState`` of ``steady_state``, or
    the ``JclaserError`` it would raise.

    Each cutoff round solves the pumps that share the cutoff and the pattern
    of nonzero rates in batches of up to 1040 block rows (eight pumps at the
    first cutoff of 32): a batch fills its blocks in one broadcast over the
    cached sector index, shares the scatter into band storage and one product
    per refinement step, and factors its pumps one by one.  Every retry, the
    trace and the tail test are per pump, so a state does not depend on the
    pumps solved with it.
    """
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max_cap < 1:
        raise ValueError(f"n_max_cap must be at least 1, got {n_max_cap}")
    if not rtol > 0.0:
        raise ValueError(f"rtol must be > 0, got {rtol}")
    ps = [replace(params, P_sigma=float(P)) for P in pumps]
    out: list = [None] * len(ps)
    todo = {}  # pump -> (cutoff, pinned rung) of its next round
    for i, p in enumerate(ps):
        if why := _no_steady_state(p):
            out[i] = NoSteadyStateError(why)
        else:
            todo[i] = (min(_N_START, n_max_cap) if n_max is None else n_max, 0)
    while todo:
        rounds: dict = {}
        for i, (n, _) in todo.items():
            rounds.setdefault((n, ps[i].P_sigma != 0.0), []).append(i)
        batches = []
        for (n, _), idx in rounds.items():
            step = max(1, _BATCH_ROWS // (4 * n + 2))  # the k = 0 block has 4 n + 2 rows
            batches += [(n, idx[start : start + step]) for start in range(0, len(idx), step)]
        current, todo = todo, {}
        for n, batch in batches:
            states = _fixed_cutoff_states([ps[i] for i in batch], n, [current[i][1] for i in batch])
            for i, ss in zip(batch, states):
                if n_max is not None or isinstance(ss, JclaserError):
                    out[i] = ss
                    continue
                T = ss.photon_distribution
                if _tail_converged(T, rtol, _TAIL):
                    out[i] = ss
                elif n >= n_max_cap:
                    out[i] = TruncationNotConvergedError(f"no convergence below photon cutoff {n_max_cap}")
                else:
                    todo[i] = (min(2 * n, n_max_cap), int(np.argmax(T)))
    return out


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
    up to and including ``n_max_cap``, pinned at the previous peak.  This is
    the one-pump case of ``steady_state_sweep``.
    """
    (ss,) = steady_state_sweep(params, [params.P_sigma], n_max, n_max_cap, rtol)
    if isinstance(ss, JclaserError):
        raise ss
    return ss


# ---------------------------------------------------------------------------
# Quantum regression: spectral lines and spectra
# ---------------------------------------------------------------------------


@dataclass
class RegressionSector:
    """Generator block, initial condition, readout and population n_c = Re readout . u0 > 0
    of one channel, in the phase gauge of ``regression_sector``."""

    generator: SectorBlock
    u0: np.ndarray
    readout: np.ndarray
    n_c: float

    def lines(self, weight_floor: float = 0.0) -> list[SpectralLine]:
        """Lines from ``decompose`` of the densified block on one BLAS thread, weights over n_c."""
        try:
            with one_blas_thread():
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
    condition is rho c' on the sector and the readout takes Tr(c .).  An
    empty channel, n_c = Re readout . u0 not above 0, raises
    ``EmptyChannelError`` (``lineshape.channel_population``).

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
    G = sector_generator(params, ss.space.n_max, 1)
    r, s = G.index.r, G.index.s
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
    u0, readout = u0 * np.conj(d), readout * d
    n_c = channel_population(np.real(np.dot(readout, u0)))
    return RegressionSector(generator=replace(G, data=data), u0=u0, readout=readout, n_c=n_c)


def _populated_cutoff(T: np.ndarray, rel: float = 1e-12, pad: int = 8) -> int:
    idx = np.nonzero(T > rel * T.max())[0]
    return int(idx[-1]) + pad if len(idx) else pad


def truncate_steady_state(ss: SteadyState, n_eff: int) -> SteadyState:
    """View of the steady state on a smaller photon ladder (no renorm)."""
    if n_eff >= ss.space.n_max:
        return ss
    k = n_eff + 1
    return replace(ss, p0=ss.p0[:k], p1=ss.p1[:k], q_r=ss.q_r[:k], q_i=ss.q_i[:k])


def spectral_lines(
    params: SystemParams, *, ss: SteadyState, channel: str = "cavity", weight_floor: float = 0.0
) -> list[SpectralLine]:
    """Line decomposition of the emission spectrum for one channel from the
    steady state ``ss``.

    ``lineshape.decompose`` projects the steady-state initial condition on
    the eigenbasis of the coherence-sector block; weights are normalized by
    the channel population n_c so they sum to one, and a table whose weights
    miss one by more than 1e-6 is refused.  An empty channel, n_c = 0, raises
    ``EmptyChannelError``.
    """
    return regression_sector(params, ss, channel).lines(weight_floor)


def elastic_weight_estimate(lines: list[SpectralLine], gamma_a: float) -> float:
    """Operational elastic weight: lines much narrower than the cavity.

    The exact engine has no true delta; the coherent fraction shows up as
    lines with widths far below gamma_a.
    """
    cut = gamma_a / 10.0
    return sum(ln.L for ln in lines if abs(ln.gamma) < cut)


def spectrum(
    params: SystemParams, *, ss: SteadyState, omega: np.ndarray, channel: str = "cavity"
) -> SpectrumResult:
    """Normalized emission spectrum of the steady state ``ss`` on the grid
    ``omega``, with its line table; after a refused table the grid is the
    banded resolvent and ``meta`` says why.  ``meta["grid_integral"]`` is the
    trapezoid integral of the grid values, and ``meta["eig_form"]`` reads
    "real" or "complex", the arithmetic of the block's eigendecomposition."""
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

    The k = 1 block couples excitation numbers N and N +- 1 only, so in
    excitation order it is banded: each shift is one O(size) factor of the
    band with its main diagonal moved.  Exact for any conditioning of the
    eigenbasis; no eigendecomposition.
    """
    ix = sec.generator.index
    kl, ku = ix.kl, ix.ku
    values = []
    try:
        ab = _band_storage(ix, sec.generator.data, kl, ku)
        diag = ab[kl + ku].copy()
        for w in np.asarray(omega, dtype=float):
            ab[kl + ku] = diag + 1j * w
            with np.errstate(invalid="ignore", over="ignore"):
                x = _band_solve(ab, kl, ku, sec.u0, w)[2]
            values.append(-np.real(np.dot(sec.readout, x)))
    except MemoryError as exc:
        raise SolverMemoryError(f"out of memory in the banded LU (size {sec.generator.size}): {exc}") from exc
    return np.array(values) / (math.pi * sec.n_c)


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

    ``n_max``, ``n_max_cap`` and ``rtol`` go to ``steady_state_sweep``.
    Weights keep their sign.  A ``JclaserError`` at one pump is recorded and
    the sweep continues; the second return value lists (pump, message)
    failures.  Other exceptions are caller or program errors and propagate.
    The line tables run on the available cores (``_line_tables``).
    """
    if channel not in ("cavity", "emitter"):
        raise ValueError(f"unknown channel {channel!r}")
    rows: list[TransitionRow] = []
    failures: list[tuple[float, str]] = []
    pumps = np.asarray(pumps, dtype=float)
    with one_blas_thread() as pinned:
        states = steady_state_sweep(params, pumps, n_max, n_max_cap=n_max_cap, rtol=rtol)
        tables = _line_tables(states, channel, weight_floor, len(os.sched_getaffinity(0)) - 1 if pinned else 0)
    for P, table in zip(pumps, tables):
        if isinstance(table, JclaserError):
            failures.append((float(P), f"{type(table).__name__}: {table}"))
        else:
            rows += [TransitionRow(float(P), ln.omega, ln.gamma, ln.L, ln.K) for ln in table]
    return rows, failures


def _line_tables(states: list, channel: str, weight_floor: float, workers: int) -> list:
    """``spectral_lines`` of each state, or its ``JclaserError``, in pump order.

    The caller takes the largest block, so its memory is not kept in a pool
    thread's arena; a pool of ``workers`` threads made for this call takes the
    rest largest first, and the caller each one not yet started.  One BLAS
    thread per eig makes the tables a serial loop's, bit for bit.  A program
    error stops what has not started; the earliest pump's is raised last.
    """
    from concurrent.futures import ThreadPoolExecutor

    tables, errors = list(states), {}
    todo = [k for k, ss in enumerate(states) if isinstance(ss, SteadyState)]
    # by the cutoff of the populated ladder, which sets the block's size
    todo.sort(key=lambda k: -min(_populated_cutoff(states[k].photon_distribution), states[k].space.n_max))

    def table(k: int) -> None:
        if errors and k != todo[0]:  # the caller's block always runs
            return
        try:
            tables[k] = spectral_lines(states[k].params, channel=channel, ss=states[k], weight_floor=weight_floor)
        except JclaserError as exc:
            tables[k] = exc
        except Exception as exc:  # noqa: BLE001 - raised below, in pump order
            errors[k] = exc

    pool = ThreadPoolExecutor(workers, thread_name_prefix="jclaser-eig") if workers else None
    futures = {k: pool.submit(table, k) for k in todo[1:]} if pool else {}
    try:
        for k in todo:
            if k not in futures or futures[k].cancel():  # not started by the pool
                table(k)
    finally:
        if pool:  # an interrupted caller, too, waits for the running tables
            pool.shutdown(cancel_futures=True)
    for f in futures.values():
        if not f.cancelled():
            f.result()
    if errors:
        raise errors[min(errors)]
    return tables
