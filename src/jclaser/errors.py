"""Exception types shared across the package."""


class JclaserError(Exception):
    """Base class for all package errors."""


class ConfigError(JclaserError):
    """Invalid run configuration (bad flag value, malformed config file)."""


class NoSteadyStateError(JclaserError):
    """The rates admit no unique steady state: a pump not below its loss,
    nothing that pumps or damps the system, or a singular sector block."""


class SolverMemoryError(JclaserError):
    """A solver ran out of memory while allocating its factor or workspace."""


class ZeroPivotError(JclaserError):
    """A banded LU met an exactly singular (possibly frequency-shifted) block."""


class TruncationNotConvergedError(JclaserError):
    """Automatic Fock-space growth hit its cap before converging."""


class NoPhysicalRootError(JclaserError):
    """The cothermal n = 2 equation has no root with g2 <= 2 (superthermal field)."""


class NonDiagonalizableError(JclaserError):
    """The regression generator could not be diagonalized reliably."""


class LineFitError(JclaserError):
    """A rational line table failed its checks: a pole not below the real
    axis, weights that miss one, or no validated fit within the sample budget."""


class EmptyChannelError(JclaserError):
    """The channel holds no population, so its spectrum has no normalisation."""
