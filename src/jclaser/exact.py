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
  Its resolvent F(z) = readout . (G + i z)^-1 u0 / n_c costs one banded LU
  per point z; ``_band_solve`` factors and solves the bands of both sectors.
  ``spectrum``, ``spectral_lines`` and ``transition_map`` take their lines
  from one rational fit of F (``_line_table``): samples, an AAA fit, and a
  check against fresh solves on the real axis.  Each point is solved once,
  and at resonance (delta = 0) only those with Re z >= 0, as F(-conj z) =
  conj F(z); ``resolvent_solves`` and the budget count distinct solves.
  The spectral functions take the ``SteadyState`` alone and read the rates
  from ``ss.params``, so a spectrum cannot pair one set of rates with the
  state of another; ``spectrum`` builds its record with
  ``lineshape.line_spectrum``, the constructor of every line table's grid.

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
    LineFitError,
    NoSteadyStateError,
    SolverMemoryError,
    TruncationNotConvergedError,
    ZeroPivotError,
)
from .lineshape import SpectralLine, SpectrumResult, channel_population, line_spectrum, lines_from_eigenpairs
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
    sector solve fills it; the tests also rebuild it from photon statistics.
    ``herm_defect`` is max |x_{r;s} - conj(x_{s;r})| of the solved sector
    vector before it was stored as Hermitian arrays (0 if reconstructed).
    The photon ladder ``space`` is that of the arrays.  The record holds no
    dense matrix: the engine never builds one.
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


def _band_solve(ab: np.ndarray, kl: int, ku: int, b: np.ndarray, shift: complex = 0.0) -> tuple:
    """LAPACK banded LU of the band storage ``ab`` and x of ``ab`` x = b, as (lu, piv, x); a zero pivot raises."""
    lu, piv, info = zgbtrf(ab, kl, ku)
    if info > 0:
        raise ZeroPivotError(f"zero pivot {info} in the banded LU (size {ab.shape[1]}, shift i * {shift:g})")
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


# First photon cutoff of auto mode; each refused round doubles it.  The cap
# of the doubling and the tolerance of the tail test are the defaults of
# every steady state and of the command-line flags --auto-nmax-cap and --tol.
_N_START = 32
N_MAX_CAP = 2048
CUTOFF_RTOL = 1e-7
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
    n_max_cap: int = N_MAX_CAP,
    rtol: float = CUTOFF_RTOL,
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
    n_max_cap: int = N_MAX_CAP,
    rtol: float = CUTOFF_RTOL,
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
    of one channel, and whether delta = 0."""

    generator: SectorBlock
    u0: np.ndarray
    readout: np.ndarray
    n_c: float
    resonant: bool


def regression_sector(ss: SteadyState, channel: str) -> RegressionSector:
    """The k = 1 sector of the rates ``ss.params``, which holds
    <c'(0) c(t)> for c = a or sigma.

    Its elements are the ladder operators' matrix elements; the initial
    condition is rho c' on the sector and the readout takes Tr(c .).  An
    empty channel, n_c = Re readout . u0 not above 0, raises
    ``EmptyChannelError`` (``lineshape.channel_population``).

    Unpopulated tail rungs carry no weight, so the sector is built on the
    populated ladder only (occupation above 1e-12 of the peak, plus padding;
    restricting twice changes nothing), which keeps every banded solve small.
    """
    ss = _populated_ladder(ss)
    a, sig = _ladders(ss.space.n_max)
    if channel == "cavity":
        c = a
    elif channel == "emitter":
        c = sig
    else:
        raise ValueError(f"unknown channel {channel!r}")
    G = sector_generator(ss.params, ss.space.n_max, 1)
    r, s = G.index.r, G.index.s
    # (rho c')_{r;s} = rho_{r;t} (c')_{t;s}, where c' takes s to t alone
    dst, amp = c
    t, v = _adjoint(c)
    ok = t[s] >= 0
    u0 = np.zeros(len(r), dtype=complex)
    u0[ok] = ss.element(r[ok], t[s[ok]]) * v[s[ok]]
    readout = np.where(dst[r] == s, amp[r], 0.0)  # readout[e] = <s| c |r>
    n_c = channel_population(np.real(np.dot(readout, u0)))
    return RegressionSector(generator=G, u0=u0, readout=readout, n_c=n_c, resonant=ss.params.delta == 0.0)


def _populated_ladder(ss: SteadyState) -> SteadyState:
    """View of the steady state on the rungs up to its top populated one,
    holding over 1e-12 of the peak photon occupation, plus 8 (no renorm)."""
    T = ss.photon_distribution
    top = np.nonzero(T > 1e-12 * T.max())[0]
    k = (int(top[-1]) if len(top) else 0) + 9
    if k > ss.space.n_max:
        return ss
    return replace(ss, p0=ss.p0[:k], p1=ss.p1[:k], q_r=ss.q_r[:k], q_i=ss.q_i[:k])


def _resolvent(sec: RegressionSector, z: np.ndarray) -> np.ndarray:
    """F(z) = readout . (G + i z)^-1 u0 / n_c at each point of ``z``, one banded LU per point.

    The k = 1 block couples excitation numbers N and N +- 1 only, so in
    excitation order it is banded: each shift is one O(size) factor of the
    band with its main diagonal moved.  Exact for any conditioning of the
    eigenbasis; no eigendecomposition.
    """
    ix = sec.generator.index
    kl, ku = ix.kl, ix.ku
    out = np.empty(len(z), dtype=complex)
    try:
        ab = _band_storage(ix, sec.generator.data, kl, ku)
        diag = ab[kl + ku].copy()
        with np.errstate(invalid="ignore", over="ignore"):
            for i, zi in enumerate(z):
                ab[kl + ku] = diag + 1j * zi
                out[i] = np.dot(sec.readout, _band_solve(ab, kl, ku, sec.u0, zi)[2])
    except MemoryError as exc:
        raise SolverMemoryError(f"out of memory in the banded LU (size {sec.generator.size}): {exc}") from exc
    return out / sec.n_c


# Rational line tables.  F(z) = sum_p c_p / (lam_p + i z) is rational, with a
# pole w_p = i lam_p below the real axis per line and weights c_p = L_p + i K_p
# that sum to one.  ``_line_table`` samples F by banded solves, fits it with
# AAA (Nakatsukasa, Sete & Trefethen, SIAM J. Sci. Comput. 40 (2018) A1494)
# and checks the fit on the real axis.  The constants were set on 1500 probe
# tables, both channels at gamma_sigma 0.00334 and gamma_a 0.1 over P
# 0.001..1000, with delta 0.5 or 2, gamma_phi 0.1, both (0.3, 0.1) or (-1, 1),
# or P_a 0.02 over P 0.01..40, and at gamma_a 0.01 (P <= 7), 0.5 and 2: every
# table validates in 127 to 2062 solves (counted with repeats; solved once and
# mirrored, 84 tables over gamma_a 0.01..2 take 82 to 717), with weights within
# 4e-8 of one.
# Start samples sit at Im z = 0.02, above the narrowest lines (7.5e-3 wide at
# P 6.1), where F varies smoothly: 61 points on [-30, 30], past the Mollow
# side bands (+-24 at P 15), and 10 log-spaced points on each side out to
# |z| = 3e3, where F ~ 1/z fixes the weights' sum.  With 41 points on
# [-30, 30] the weights of one probe missed one by 2.1e-7; with 101 the
# README map (60 pumps, both channels) took 21% more solves.
_ETA = 0.02
# The fit weighs each sample's miss by 1 / max(|F|, 0.01 max |F|): relative
# down to 1% of the peak, absolute below, and stops at a weighted miss of
# 1e-11, two decades below the check.  An absolute fit left the weights of
# the P 26.2 cavity 1.1e-6 from one; a relative fit ran out of solves.
_FIT_RTOL = 1e-11
_FIT_FLOOR = 1e-2
_MAX_DEGREE = 100  # the README map needs at most 38 poles
# A fit holds where its S misses fresh solves by at most 1e-9 of max S, ten
# times below the 1e-8 at which the tests compare grids.
_VALID_RTOL = 1e-9
# A pole whose largest value on the sample line, |c| / 0.02, is below 1e-9 of
# max |F| is a Froissart doublet (a spurious pole-zero pair): the samples do not
# see it.  A floor of 1e-9 on |c| alone dropped a true line of the P 131 emitter
# (|c| 8e-10, 0.2 wide, max |F| 0.026), and that table never validated.
_DOUBLET = 1e-9
# Shift of the inverted pencil: poles near the real axis are resolved relative
# to their distance from it; a shift of 3e3 i cost the narrow P 27 lines 1e-7.
_SHIFT = 0.1j
_BUDGET = 3000  # distinct resolvent solves per table; the probes take at most 2062
_CLOSURE = 1e-6  # how far the weights' real parts may sum from one: the tests' and the gate's tolerance


def _aaa(Z: np.ndarray, F: np.ndarray, support: list[int]) -> tuple:
    """Support points z, values f and weights w of the AAA fit
    r(x) = sum_j w_j f_j / (x - z_j) / sum_j w_j / (x - z_j) to F at the distinct points Z,
    and the weight of each sample's miss.

    Each step takes w as the right singular vector of the smallest singular
    value of the weighted Loewner matrix and adds the worst-fitted sample.
    ``support`` (indices into Z) grows in place, so a refit on more samples
    resumes from the last fit's support points.
    """
    scale = 1.0 / np.maximum(np.abs(F), _FIT_FLOOR * np.max(np.abs(F)))
    if not support:
        support.append(int(np.argmax(np.abs(F - np.mean(F)) * scale)))
    free = np.ones(len(Z), dtype=bool)
    while True:
        free[support] = False
        z, f = Z[support], F[support]
        C = 1.0 / (Z[free, None] - z)
        w = np.linalg.svd(scale[free, None] * (F[free, None] - f) * C, full_matrices=False)[2][-1].conj()
        miss = np.zeros(len(Z))
        miss[free] = np.abs(F[free] - (C @ (w * f)) / (C @ w)) * scale[free]
        if np.max(miss) <= _FIT_RTOL or len(support) > _MAX_DEGREE:
            return z, f, w, scale
        support.append(int(np.argmax(miss)))


def _poles(z: np.ndarray, f: np.ndarray, w: np.ndarray, scale: np.ndarray, Z: np.ndarray, F: np.ndarray) -> tuple:
    """(every pole of the fit within reach of the samples, the poles kept, their residues).

    The poles p are the finite eigenvalues of the barycentric pencil E - p B,
    from the eigenvalues 1 / (p - s) of (E - s B)^-1 B.  Doublets go by their
    residue n / d'; the rest get least-squares residues, weighted as the fit,
    and doublets among those go too.
    """
    E = np.diag(np.concatenate([[0.0], z]))
    E[0, 1:], E[1:, 0] = w, 1.0
    B = np.diag(np.concatenate([[0.0], np.ones(len(z))]))
    mu = np.linalg.eigvals(np.linalg.solve(E - _SHIFT * B, B))
    every = _SHIFT + 1.0 / mu[np.abs(mu) > 1e-14 * np.max(np.abs(mu))]  # mu = 0: the two infinite p
    every = every[np.abs(every) <= np.max(np.abs(Z))]  # the samples see no line beyond their reach
    floor = _DOUBLET * _ETA * np.max(np.abs(F))
    C = 1.0 / (every[:, None] - z)
    poles = every[np.abs((C @ (w * f)) / ((C * C) @ w)) >= floor]
    while True:
        A = scale[:, None] / (Z[:, None] - poles)
        norm = np.linalg.norm(A, axis=0)
        res = np.linalg.lstsq(A / norm, scale * F)[0] / norm
        if np.all(np.abs(res) >= floor):
            return every, poles, res
        poles = poles[np.abs(res) >= floor]


def _line_table(sec: RegressionSector, weight_floor: float = 0.0) -> tuple[list[SpectralLine], dict]:
    """The sector's lines, each an effective pole of S(w) (a broad band of
    eigenvalues of G shows as a few lines), and a record of their fit.

    A kept pole w_p with residue res_p is the line lam_p = -i w_p of weight
    c_p = i res_p.  The S of the table is checked against fresh solves at
    every other midpoint between samples and at Re w_p and Re w_p +- |Im w_p|
    of every pole; the points that miss by more than 1e-9 of max S, and the
    kept poles not below the real axis, join the samples and the fit is redone.
    Raises ``LineFitError`` when the weights' real parts miss one by more
    than 1e-6, and before any sampling that would take the distinct solves
    past the budget.

    ``sample`` keeps every value it solves, so no point is solved twice.  At
    resonance the conjugate of the block is the block with the signs
    (-1)^(i_r + i_s) of its elements, which u0 and the readout carry too (the
    steady coherences are imaginary): F(-conj z) = conj F(z), bit for bit.
    There a point with Re z < 0 reads its mirror's value, and the samples and
    checks are mirror-closed: the midpoints of the samples with Re z >= 0 and
    every pole's points, with their mirrors.
    """
    solved: dict[complex, complex] = {}
    why = "no fit checked yet"  # the last check's verdict

    def sample(z: np.ndarray) -> np.ndarray:
        mirrored = sec.resonant & (z.real < 0.0)
        at = np.where(mirrored, -z.conj(), z).tolist()
        new = [p for p in dict.fromkeys(at) if p not in solved]
        if len(solved) + len(new) > _BUDGET:
            raise LineFitError(f"line fit not validated in {len(solved)} solves (size {sec.generator.size}): {why}")
        if new:
            solved.update(zip(new, _resolvent(sec, np.array(new)).tolist()))
        F = np.array([solved[p] for p in at], dtype=complex)
        return np.where(mirrored, F.conj(), F)

    def mirror(v: np.ndarray) -> np.ndarray:
        return np.concatenate([v, -v.conj()]) if sec.resonant else v

    # the start samples, built here: at import they raised every command's peak RSS by 0.5 MB
    far = np.geomspace(30.0, 3e3, 11)[1:]
    Z = 1j * _ETA + np.concatenate([-far[::-1], np.linspace(-30.0, 30.0, 61), far])
    F, support = sample(Z), []
    while True:
        every, poles, res = _poles(*_aaa(Z, F, support), Z, F)
        x = np.sort(Z.real)
        if sec.resonant:
            x = x[x >= 0.0]
        half = np.abs(every.imag)
        V = mirror(np.concatenate([(x[:-1:2] + x[1::2]) / 2, every.real, every.real - half, every.real + half]))
        V = np.unique(V)
        V = V[~np.isin(V, Z)]  # the fit has seen the samples
        S = -sample(V).real / math.pi
        miss = np.abs(np.real(np.sum(res / (V[:, None] - poles), axis=1)) / math.pi + S) / np.max(np.abs(S))
        bad, upper = miss > _VALID_RTOL, poles[poles.imag >= 0.0]
        if not bad.any() and not len(upper):
            break
        why = (f"misses by {np.max(miss):.1e} of max S" if bad.any()
               else f"pole {upper[0]:.6g} not below the real axis")
        # F has no pole above the real axis: a sample at a fitted one refutes it
        new = np.setdiff1d(mirror(np.concatenate([V[bad], upper])), Z)
        Z, F = np.concatenate([Z, new]), np.concatenate([F, sample(new)])
    closure = abs(np.sum((1j * res).real) - 1.0)
    if not closure <= _CLOSURE:
        raise LineFitError(f"line weights miss one by {closure:.2e}")
    fit = {"resolvent_solves": len(solved), "poles": len(poles), "doublets": len(every) - len(poles),
           "fit_miss": float(np.max(miss)), "closure_miss": float(closure)}
    return lines_from_eigenpairs(-1j * poles, 1j * res, weight_floor), fit


def spectral_lines(ss: SteadyState, channel: str = "cavity", weight_floor: float = 0.0) -> list[SpectralLine]:
    """Line table of the emission spectrum of one channel from the steady
    state ``ss``: the validated rational fit of ``_line_table``, weights over
    n_c, lines with |L| + |K| below ``weight_floor`` dropped.  An empty
    channel, n_c = 0, raises ``EmptyChannelError``; a fit that fails its
    checks, ``LineFitError``.
    """
    return _line_table(regression_sector(ss, channel), weight_floor)[0]


def spectrum(ss: SteadyState, omega: np.ndarray, channel: str = "cavity") -> SpectrumResult:
    """Normalized emission spectrum of the steady state ``ss`` on the grid
    ``omega``, from its line table (``_line_table``) by
    ``lineshape.line_spectrum``.  ``meta`` holds the fit's record next to the
    grid readings.  ``elastic_weight`` stays 0: the model has no delta line,
    and its coherent part is a narrow line of the table, so the lines'
    weights alone sum to one."""
    lines, fit = _line_table(regression_sector(ss, channel))
    meta = {"n_max": ss.space.n_max, "n_a": ss.n_a, "n_sigma": ss.n_sigma, **fit}
    return line_spectrum(lines, channel, omega, "exact", meta)


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
    n_max_cap: int = N_MAX_CAP,
    rtol: float = CUTOFF_RTOL,
) -> tuple[list[TransitionRow], list[tuple[float, str]]]:
    """Spectral-line table across a pump sweep (dressed-state map).

    ``n_max``, ``n_max_cap`` and ``rtol`` go to ``steady_state_sweep``.
    Weights keep their sign.  A ``JclaserError`` at one pump is recorded and
    the sweep continues; the second return value lists (pump, message)
    failures.  Other exceptions are caller or program errors and propagate.
    """
    if channel not in ("cavity", "emitter"):
        raise ValueError(f"unknown channel {channel!r}")
    rows: list[TransitionRow] = []
    failures: list[tuple[float, str]] = []
    pumps = np.asarray(pumps, dtype=float)
    for P, ss in zip(pumps, steady_state_sweep(params, pumps, n_max, n_max_cap=n_max_cap, rtol=rtol)):
        try:
            if isinstance(ss, JclaserError):
                raise ss
            lines = spectral_lines(ss, channel, weight_floor)
        except JclaserError as exc:
            failures.append((float(P), f"{type(exc).__name__}: {exc}"))
            continue
        rows += [TransitionRow(float(P), ln.omega, ln.gamma, ln.L, ln.K) for ln in lines]
    return rows, failures
