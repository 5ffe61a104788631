"""Strong light-matter coupling under incoherent excitation.

Steady states, photon statistics and emission spectra of a two-level
emitter coupled to a single cavity mode with incoherent pumping, detuning
and pure dephasing, plus the coherently driven emitter for comparison.
"""

from . import approximations, coherent, exact, spectra
from .errors import (
    ConfigError,
    EmptyChannelError,
    JclaserError,
    LineFitError,
    NonDiagonalizableError,
    NoPhysicalRootError,
    NoSteadyStateError,
    SolverMemoryError,
    TruncationNotConvergedError,
)
from .lineshape import SpectralLine, SpectrumResult
from .params import LaserDriveParams, SystemParams, kappa_a, kappa_sigma

__all__ = [
    "approximations",
    "coherent",
    "exact",
    "spectra",
    "ConfigError",
    "EmptyChannelError",
    "JclaserError",
    "LaserDriveParams",
    "LineFitError",
    "NonDiagonalizableError",
    "NoPhysicalRootError",
    "NoSteadyStateError",
    "SolverMemoryError",
    "SpectralLine",
    "SpectrumResult",
    "SystemParams",
    "TruncationNotConvergedError",
    "kappa_a",
    "kappa_sigma",
]

__version__ = "0.1.0"
