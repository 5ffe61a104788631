"""Spectral lines: the eigen-projection, the line records, Lorentzian sums.

Each engine writes its two-time correlator as du/dtau = G u + f from
u(0) = u0, read out as <c'(0)c(tau)> = readout . u(tau).  One convention: G
is the generator, so u(tau) = B + e^{G tau} (u0 - B) with G B = -f, and an
eigenvalue lam gives a line at omega = -Im lam of FWHM gamma = -2 Re lam.
The approximate (per-rung) and coherent-drive engines project on the
eigenbasis of their small blocks with ``decompose``; the exact engine fits
the poles of its resolvent instead (``exact.spectral_lines``), each pole
w_p standing for lam = -i w_p.  All three turn (lam, weight) pairs into
lines with ``lines_from_eigenpairs``, which merges degenerate eigenvalues
within each block and drops the lines below one floor, giving

    <c'(0)c(t)> = readout . B + n_c * sum_p (L_p + i K_p) exp(-i w_p t - g_p t / 2)

which transforms into a sum of Lorentzians with dispersive admixtures.
Every engine normalises its lines by the channel population n_c through
``channel_population``, the one place an empty channel is refused; the rung
and coherent-drive engines both do it in ``decomposition_spectrum``.  One
constructor, ``line_spectrum``, turns any line table on a grid into the
``SpectrumResult`` of every engine (exact, rung, coherent-drive and both
semiclassical channels), with the grid's two readings in its ``meta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyChannelError, NonDiagonalizableError


@dataclass(frozen=True)
class SpectralLine:
    """One emission line: center, FWHM, Lorentzian and dispersive weights."""

    omega: float
    gamma: float
    L: float
    K: float = 0.0


# Relative eigenvalue gap below which two lines merge into one (exceptional
# points of the generator, where the eigenbasis degenerates).
_DEGENERACY_RTOL = 1e-9
_LINE_FLOOR = 1e-14  # every line table drops the lines with |L| + |K| below this
_CLOSURE = 1e-6  # how far a table's weights and elastic part may sum from one (n_c), relative


@dataclass(frozen=True)
class Decomposition:
    """Per block: eigenvalues, weights readout . V_p (V^-1 (u0 - B))_p (not
    normalized), the elastic part readout . B and n_c = Re readout . u0."""

    lams: np.ndarray
    weights: np.ndarray
    elastic: np.ndarray
    n_c: np.ndarray


def decompose(G: np.ndarray, u0: np.ndarray, readout: np.ndarray, inhom: np.ndarray) -> Decomposition:
    """Project u0 - B on the eigenbasis of G, with G B = -inhom.

    ``G`` has shape (..., n, n) and the vectors (..., n); every leading axis
    is a batch of independent blocks, and a block whose ``inhom`` is zero
    has B = 0 (no elastic part).  Refuses with
    ``NonDiagonalizableError`` when the eigenbasis residual
    max |G V - V lam| / max |lam| of a block exceeds 1e-8, or when the real
    part of its weights plus its elastic part misses n_c by more than 1e-6
    of n_c: the eigenbasis is then too ill-conditioned to trust single lines.
    An eig that does not converge or a singular eigenbasis refuses the same way.
    """
    rhs = -inhom[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            B = np.linalg.solve(G, rhs)[..., 0]
        except np.linalg.LinAlgError:  # a singular block: least-squares part
            B = (np.linalg.pinv(G) @ rhs)[..., 0]
    # a block without drive term has no stationary part; a solve would
    # read inf * 0 in it where a pivot of G is subnormal
    B = np.where(np.any(inhom != 0.0, axis=-1, keepdims=True), B, 0.0)
    try:
        lams, V = np.linalg.eig(G)
        proj = np.linalg.solve(V, (u0 - B)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizableError(str(exc)) from exc
    scale = np.maximum(np.max(np.abs(lams), axis=-1), 1e-300)
    resid = _eig_residual(G, V, lams) / scale
    if not np.all(resid <= 1e-8):
        raise NonDiagonalizableError(f"eigenbasis residual {np.max(resid):.2e}")
    weights = (readout[..., None, :] @ V)[..., 0, :] * proj
    elastic = np.sum(readout * B, axis=-1)
    total = np.sum(readout * u0, axis=-1)
    miss = np.abs((np.sum(weights, axis=-1) + elastic - total).real)
    if not np.all(miss <= _CLOSURE * np.abs(total.real)):
        raise NonDiagonalizableError(
            f"line weights miss one by {np.max(miss / np.abs(total.real)):.2e}"
        )
    return Decomposition(lams=lams, weights=weights, elastic=elastic, n_c=total.real)


def channel_population(n_c) -> float:
    """n_c summed over blocks; an empty channel, a sum not above 0, raises
    ``EmptyChannelError``, as it leaves no spectrum to normalise."""
    total = float(np.sum(n_c))
    if not total > 0.0:
        raise EmptyChannelError(f"empty channel: its population n_c = {total:g} leaves no spectrum to normalise")
    return total


def _eig_residual(G: np.ndarray, V: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """max |G V - V lam| per block."""
    return np.max(np.abs(G @ V - V * lams[..., None, :]), axis=(-2, -1))


def merge_degenerate(lams: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge eigenvalues closer than 1e-9 of max |lam| along the last axis.

    A group keeps its mean eigenvalue and summed weight at its first position,
    which ``keep`` marks.  Jordan-block (t exp(lam t)) terms are not modeled;
    the summed weight keeps the spectral integral right through the crossing.
    """
    n = lams.shape[-1]
    tol = _DEGENERACY_RTOL * np.max(np.abs(lams), axis=-1, initial=1e-300)
    close = np.abs(lams[..., :, None] - lams[..., None, :]) < tol[..., None, None]
    first = np.argmax(close, axis=-1)  # the earliest eigenvalue within the gap
    up = np.take_along_axis(first, first, axis=-1)
    while np.any(up != first):  # a chain joins the group of its earliest member
        first, up = up, np.take_along_axis(up, up, axis=-1)
    keep = first == np.arange(n)
    member = first[..., None, :] == np.arange(n)[:, None]  # [..., group, index]
    size = np.maximum(np.sum(member, axis=-1), 1)
    lams = np.where(keep, np.sum(member * lams[..., None, :], axis=-1) / size, lams)
    weights = np.where(keep, np.sum(member * weights[..., None, :], axis=-1), weights)
    return lams, weights, keep


def lines_from_eigenpairs(lams: np.ndarray, weights: np.ndarray) -> list[SpectralLine]:
    """Lines from generator eigenvalues and normalized (L + iK) weights.

    Degenerate eigenvalues merge within each block, along the last axis (a
    line of one rung never merges with a line of another); the blocks are
    then flattened in order, and lines with |L| + |K| below ``_LINE_FLOOR``
    (1e-14) dropped.  ``omega = -Im(lam)`` and ``gamma = -2 Re(lam)``.
    """
    lams, weights, keep = (np.ravel(a) for a in merge_degenerate(lams, weights))
    keep &= np.abs(weights.real) + np.abs(weights.imag) >= _LINE_FLOOR
    return [
        SpectralLine(omega=float(-lam.imag), gamma=float(-2.0 * lam.real), L=float(c.real), K=float(c.imag))
        for lam, c in zip(lams[keep], weights[keep])
    ]


def evaluate_lines(lines: list[SpectralLine], omega: np.ndarray) -> np.ndarray:
    """Sum of Lorentzian + dispersive terms, 1/pi normalization.

    S(w) = (1/pi) sum_p [L_p g_p/2 - K_p (w - w_p)] / [(g_p/2)^2 + (w - w_p)^2]
    """
    omega = np.asarray(omega, dtype=float)
    total = np.zeros_like(omega)
    for ln in lines:
        half = ln.gamma / 2.0
        d = omega - ln.omega
        total += (ln.L * half - ln.K * d) / (half**2 + d**2)
    return total / np.pi


def integrate_lines(lines: list[SpectralLine], lo: float, hi: float) -> float:
    """Exact integral of the line sum over [lo, hi] (antiderivatives).

    Lorentzian part: (L/pi) atan(2(w - w_p)/g_p); dispersive part:
    -(K/2 pi) log((g_p/2)^2 + (w - w_p)^2).  A line of zero width counts
    its L where it lies inside the window.  The terms add up as one running
    total in line order, each line's Lorentzian term before its dispersive one.
    """
    w, gamma, L, K = np.array([(ln.omega, ln.gamma, ln.L, ln.K) for ln in lines], dtype=float).reshape(-1, 4).T
    half = gamma / 2.0
    a, b = lo - w, hi - w
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero width takes the sharp term instead
        lorentz = L / np.pi * (np.arctan(b / half) - np.arctan(a / half))
        dispersive = K / (2.0 * np.pi) * (np.log(half**2 + b**2) - np.log(half**2 + a**2))
    broad = half > 0.0
    lorentz = np.where(broad, lorentz, np.where((lo <= w) & (w <= hi), L, 0.0))
    terms = np.stack([lorentz, -np.where(broad, dispersive, 0.0)], axis=-1)
    return float(np.cumsum(np.append(0.0, terms))[-1])


@dataclass
class SpectrumResult:
    """Gridded spectrum plus its line decomposition.

    The elastic (delta) weight is never rasterized into ``values``; it is
    carried separately so integrals of the incoherent part stay exact.  Only
    a true delta is elastic: the rung-sum and semiclassical emitter spectra
    have one, while the exact spectra and the semiclassical cavity line leave
    it at 0.  Where ``lines`` holds the table, its ``L`` and the elastic
    weight sum to one.
    """

    channel: str
    omega: np.ndarray
    values: np.ndarray
    elastic_weight: float = 0.0
    lines: list[SpectralLine] = field(default_factory=list)
    method: str = ""
    meta: dict = field(default_factory=dict)


def line_spectrum(
    lines: list[SpectralLine], channel: str, omega: np.ndarray, method: str, meta: dict, elastic_weight: float = 0.0
) -> SpectrumResult:
    """The spectrum of the line table ``lines`` on the grid ``omega``.

    ``meta`` gains two readings of the grid, neither of them refused:
    ``grid_integral``, the trapezoid integral of the values, far from the
    lines' weight when the grid misses a line or steps over a narrow one,
    and ``window_weight``, the lines' weight inside [min omega, max omega],
    below their total when the window cuts the tails of broad lines.  Both
    leave out the elastic weight, which the values never hold.
    """
    omega = np.asarray(omega, dtype=float)
    values = evaluate_lines(lines, omega)
    meta = {**meta, "grid_integral": float(np.trapezoid(values, omega)),
            "window_weight": integrate_lines(lines, np.min(omega), np.max(omega))}
    return SpectrumResult(channel, omega, values, elastic_weight, lines, method, meta)


def decomposition_spectrum(
    dec: Decomposition, channel: str, omega: np.ndarray, method: str, meta: dict | None = None
) -> SpectrumResult:
    """The spectrum of the blocks of ``dec`` on the grid ``omega``.

    Lines and elastic weight are normalised by the summed population n_c
    (an empty channel is refused), the lines of ``lines_from_eigenpairs``
    keep its one floor, and n_c goes first into ``meta``.
    """
    n_c = channel_population(dec.n_c)
    lines = lines_from_eigenpairs(dec.lams, dec.weights / n_c)
    elastic = float(np.sum(dec.elastic).real / n_c)
    return line_spectrum(lines, channel, omega, method, {"n_c": n_c, **(meta or {})}, elastic)
