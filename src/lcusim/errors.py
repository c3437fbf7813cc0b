"""Exception types shared across the package."""


class LcusimError(Exception):
    """Base class for all library errors."""


class InvalidModelError(LcusimError, ValueError):
    """Model-builder or run parameters (costs, shots, seed) are out of range."""


class InvalidHamiltonianError(LcusimError, ValueError):
    """Hamiltonian construction would violate an invariant (e.g. all-zero coefficients)."""


class ResourceLimitError(LcusimError, ValueError):
    """A command would exceed the qubit cap or one of its size limits."""


class NormalizationError(LcusimError, ValueError):
    """A state or amplitude vector is not normalized."""


class LayoutError(LcusimError, ValueError):
    """Register layout does not match the operation's requirements."""


class DomainError(LcusimError, ValueError):
    """Analytic formula evaluated outside its domain of validity."""
