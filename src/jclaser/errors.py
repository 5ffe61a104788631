"""Exception types shared across the package."""


class JclaserError(Exception):
    """Base class for all package errors."""


class ConfigError(JclaserError):
    """Invalid run configuration (bad flag value, malformed config file)."""


class NoSteadyStateError(JclaserError):
    """The requested parameter set admits no steady state."""


class SolverMemoryError(JclaserError):
    """A solver ran out of memory while allocating its factor or workspace."""


class ZeroPivotError(JclaserError):
    """A banded LU met an exactly singular (possibly frequency-shifted) block."""


class TruncationNotConvergedError(JclaserError):
    """Automatic Fock-space growth hit its cap before converging."""


class NoPhysicalRootError(JclaserError):
    """The cothermal root search found no root with n_a >= n_coh >= 0."""


class NotResolvableError(JclaserError):
    """No side peak exists in the spectrum at positive frequency."""


class NonDiagonalizableError(JclaserError):
    """The regression generator could not be diagonalized reliably."""


class UnphysicalResultError(JclaserError):
    """A route produced n_a < 0 or an emitter population outside [0, 1]."""


class InternalConsistencyError(JclaserError):
    """Two redundant internal routes to the same quantity disagree."""
