"""Parameter records and derived effective rates.

All rates are expressed in units of the light-matter coupling ``g`` (which is
stored explicitly so dimensional output remains possible).  Every quantity
here is a pure function of the inputs; records are frozen and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
    def Gamma_a(self) -> float:
        """Effective cavity broadening ``gamma_a - P_a`` (may be negative)."""
        return self.gamma_a - self.P_a

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


def gamma_T(params: SystemParams, n: int) -> float:
    """Total decoherence rate of the n-th photon manifold (n >= 1)."""
    if n < 1:
        raise ValueError("manifold index must be >= 1")
    return params.Gamma_sigma + params.gamma_phi + (2 * n - 1) * params.gamma_a


def g_eff(params: SystemParams, n: int) -> float:
    """Detuning-reduced coupling of manifold ``n``; equals g at resonance."""
    if params.delta == 0.0:
        return params.g
    gt = gamma_T(params, n)
    if gt == 0.0:
        return 0.0
    return params.g / math.sqrt(1.0 + (2.0 * params.delta / gt) ** 2)


def inv_C_eff(params: SystemParams, n: int) -> float:
    """Reciprocal cooperativity of manifold ``n``; finite at gamma_a = 0."""
    gt = gamma_T(params, n)
    ge = g_eff(params, n)
    if ge == 0.0:
        return math.inf
    return params.gamma_a * gt / (4.0 * ge**2)


def C_eff(params: SystemParams, n: int) -> float:
    """Effective cooperativity; +inf sentinel when gamma_a = 0."""
    inv = inv_C_eff(params, n)
    return math.inf if inv == 0.0 else 1.0 / inv


@dataclass(frozen=True)
class EffectiveRates:
    """Per-manifold derived rates for one photon index ``n``."""

    n: int
    Gamma_T: float
    g_eff: float
    C_eff: float


def effective_rates(params: SystemParams, n: int) -> EffectiveRates:
    """Bundle ``Gamma_T[n]``, ``g_eff[n]`` and ``C_eff[n]`` for manifold n."""
    return EffectiveRates(
        n=n, Gamma_T=gamma_T(params, n), g_eff=g_eff(params, n), C_eff=C_eff(params, n)
    )


def kappa_sigma(params: SystemParams) -> float:
    """Purcell rate of transfer from the emitter into the cavity mode.

    ``4 g_eff[1]^2 / gamma_a``; +inf sentinel when gamma_a = 0.
    """
    if params.gamma_a == 0.0:
        return math.inf
    return 4.0 * g_eff(params, 1) ** 2 / params.gamma_a


def kappa_a(params: SystemParams) -> float:
    """Purcell rate of transfer from the cavity mode into the emitter.

    Computed with the negligible-cavity-decay convention: the manifold width
    entering ``g_eff`` is ``Gamma_sigma + gamma_phi`` with no gamma_a term.
    """
    width = params.Gamma_sigma + params.gamma_phi
    if width == 0.0:
        return math.inf
    if params.delta == 0.0:
        ge = params.g
    else:
        ge = params.g / math.sqrt(1.0 + (2.0 * params.delta / width) ** 2)
    return 4.0 * ge**2 / width


def kappa_rates(params: SystemParams) -> tuple[float, float]:
    """Both Purcell transfer rates ``(kappa_sigma, kappa_a)``."""
    return kappa_sigma(params), kappa_a(params)
