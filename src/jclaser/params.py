"""Parameter records, derived manifold rates and the moment recurrence coefficients.

All rates are expressed in units of the light-matter coupling ``g`` (which is
stored explicitly so dimensional output remains possible).  Every quantity
here is a pure function of the inputs; records are frozen and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


def _require_finite_nonnegative(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Rates of the incoherently pumped emitter-cavity system.

    Attributes
    ----------
    g : float
        Coherent coupling rate (frequency unit of the problem), > 0.
    gamma_a, gamma_sigma : float
        Cavity and emitter decay rates.
    P_a, P_sigma : float
        Cavity and emitter incoherent pump rates.
    gamma_phi : float
        Pure dephasing rate of the emitter.
    delta : float
        Detuning ``omega_a - omega_sigma`` with the cavity at zero frequency.
    """

    g: float = 1.0
    gamma_a: float = 0.0
    gamma_sigma: float = 0.0
    P_a: float = 0.0
    P_sigma: float = 0.0
    gamma_phi: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.g) and self.g > 0):
            raise ValueError(f"g must be finite and > 0, got {self.g!r}")
        for name in ("gamma_a", "gamma_sigma", "P_a", "P_sigma", "gamma_phi"):
            _require_finite_nonnegative(name, getattr(self, name))
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")

    @property
    def Gamma_sigma(self) -> float:
        """Effective emitter broadening ``gamma_sigma + P_sigma``."""
        return self.gamma_sigma + self.P_sigma


@dataclass(frozen=True)
class LaserDriveParams:
    """Coherently driven two-level emitter (no cavity).

    ``delta`` is ``omega_L - omega_sigma``; frequencies are measured from the
    laser, so the elastic peak always sits at zero.
    """

    omega_L: float
    delta: float = 0.0
    gamma_sigma: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        for name in ("omega_L", "gamma_sigma", "gamma_phi"):
            _require_finite_nonnegative(name, getattr(self, name))
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")


def _manifold(params: SystemParams, n: int, num=float) -> tuple:
    """(Gamma_T[n], g_eff[n]^2, 1/C_eff[n]) of photon manifold n >= 1.

    The rates are converted with ``num`` first, so ``num=mpmath.mpf``
    evaluates the same formulas at the working precision.
    """
    if n < 1:
        raise ValueError("manifold index must be >= 1")
    g, ga, gs, gp, P, dl = (num(x) for x in (
        params.g, params.gamma_a, params.gamma_sigma, params.gamma_phi, params.P_sigma, params.delta
    ))
    gam_t = gs + P + gp + (2 * n - 1) * ga
    ge2 = g**2
    if dl != 0:  # a detuned manifold of zero width does not couple
        ge2 = ge2 / (1 + (2 * dl / gam_t) ** 2) if gam_t != 0 else num(0)
    invC = ga * gam_t / (4 * ge2) if ge2 != 0 else num("inf")
    return gam_t, ge2, invC


def recurrence_coefficients(params: SystemParams, n: int, num=float) -> tuple:
    """Coefficients (A_n, B_n, C_n) of the moment recurrence at index n.

    The steady-state equation reads  C_n N[n-1] - B_n N[n] - A_n N[n+1] = 0;
    at n = 1 with N[2] = g2 n_a^2 it is the quadratic of
    ``approximations.statistics_root``.  Requires P_a = 0.  The rates are
    converted with ``num`` first, as in ``_manifold``.
    """
    invC = _manifold(params, n, num)[2]
    ga, P = num(params.gamma_a), num(params.P_sigma)
    G = num(params.gamma_sigma) + P
    A = 2 * ga / (G + n * ga)
    B = invC + n * ga / (G + (n - 1) * ga) - 2 * P / (G + n * ga) + 1
    C = n * P / (G + (n - 1) * ga)
    return A, B, C


def g_eff(params: SystemParams, n: int) -> float:
    """Detuning-reduced coupling of manifold ``n``; equals g at resonance."""
    return params.g if params.delta == 0.0 else math.sqrt(_manifold(params, n)[1])


def kappa_sigma(params: SystemParams) -> float:
    """Purcell rate of transfer from the emitter into the cavity mode.

    ``4 g_eff[1]^2 / gamma_a``; +inf sentinel when gamma_a = 0.
    """
    if params.gamma_a == 0.0:
        return math.inf
    return 4.0 * _manifold(params, 1)[1] / params.gamma_a


def kappa_a(params: SystemParams) -> float:
    """Purcell rate of transfer from the cavity mode into the emitter.

    Computed with the negligible-cavity-decay convention: the manifold width
    entering ``g_eff`` is ``Gamma_sigma + gamma_phi`` with no gamma_a term.
    """
    width, ge2, _ = _manifold(replace(params, gamma_a=0.0), 1)
    return math.inf if width == 0.0 else 4.0 * ge2 / width
