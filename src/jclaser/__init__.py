"""Strong light-matter coupling under incoherent excitation.

Steady states, photon statistics and emission spectra of a two-level
emitter coupled to a single cavity mode with incoherent pumping, detuning
and pure dephasing, plus the coherently driven emitter for comparison.
"""

from . import approximations, coherent, exact, moments, spectra
from .errors import (
    ConfigError,
    InternalConsistencyError,
    JclaserError,
    NonDiagonalizableError,
    NoPhysicalRootError,
    NoSteadyStateError,
    NotResolvableError,
    SolverMemoryError,
    TruncationNotConvergedError,
    UnphysicalResultError,
)
from .lineshape import SpectralLine, SpectrumResult
from .params import (
    EffectiveRates,
    LaserDriveParams,
    SystemParams,
    effective_rates,
    kappa_a,
    kappa_rates,
    kappa_sigma,
)

__all__ = [
    "approximations",
    "coherent",
    "exact",
    "moments",
    "spectra",
    "ConfigError",
    "EffectiveRates",
    "InternalConsistencyError",
    "JclaserError",
    "LaserDriveParams",
    "NonDiagonalizableError",
    "NoPhysicalRootError",
    "NoSteadyStateError",
    "NotResolvableError",
    "SolverMemoryError",
    "SpectralLine",
    "SpectrumResult",
    "SystemParams",
    "TruncationNotConvergedError",
    "UnphysicalResultError",
    "effective_rates",
    "kappa_a",
    "kappa_rates",
    "kappa_sigma",
]

__version__ = "0.1.0"
