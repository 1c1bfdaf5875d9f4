"""Exception types raised across the package."""


class SchroedSymError(Exception):
    """Base class for all package errors."""


class DeterminantError(SchroedSymError):
    """Matrix is not unimodular within tolerance."""


class ZeroK(SchroedSymError):
    """The diffusion constant k must be nonzero."""


class ZeroOmega(SchroedSymError):
    """The oscillator frequency must be nonzero."""


class DomainError(SchroedSymError):
    """Point lies outside the function's declared domain."""


class SingularTime(SchroedSymError):
    """The fractional-linear time map is singular at this point."""


class BranchError(SchroedSymError):
    """A square root or logarithm landed on (or too near) its branch cut."""


class ShapeError(SchroedSymError):
    """Group element does not have the required matrix shape."""


class RangeError(SchroedSymError):
    """An exponent left the representable double range."""


class IntegrationError(SchroedSymError):
    """The ODE integrator produced a non-finite state."""


class ConvergenceError(SchroedSymError):
    """A series or an iteration did not reach its tolerance (a truncation
    error bound too large, or a loop that hit its step cap)."""


class QuadratureError(SchroedSymError):
    """Quadrature tail estimate exceeds the requested tolerance."""


class NoRootError(SchroedSymError):
    """No sign change was found in the requested bracket."""


class FamilyMismatch(SchroedSymError):
    """Operands belong to different potential families."""


class OrderError(SchroedSymError):
    """The function cannot supply partial derivatives of the required order."""


class ConfigError(SchroedSymError):
    """Invalid run configuration."""
