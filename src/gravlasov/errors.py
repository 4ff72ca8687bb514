"""Exception types shared across the package."""


class GravlasovError(Exception):
    """Base class for all library errors."""


class ConfigError(GravlasovError):
    """Invalid or incomplete run configuration."""


class InvalidCasimirError(GravlasovError):
    """A candidate convex weight function is not admissible."""


class GridMismatchError(GravlasovError):
    """Two fields live on different grids."""


class BoundaryConditionError(GravlasovError):
    """Density support touches the outer grid boundary."""


class SupportExceedsGridError(GravlasovError):
    """Steady-state support does not fit (with margin) inside the grid."""


class NonNegativeLambdaError(GravlasovError):
    """Exterior matching produced a non-negative chemical potential."""


class FixedPointDivergenceError(GravlasovError):
    """The Newton-Krylov fixed-point solve found no nontrivial state from any seed."""


class TargetsUnreachableError(GravlasovError):
    """Mass targets could not be bracketed by the shooting parameters."""


class ResolutionError(GravlasovError):
    """Grid resolution is insufficient for the requested diagnostic."""


class PreconditionError(GravlasovError):
    """An operation's stated precondition is violated."""


class NumericsError(GravlasovError):
    """NaN or other numerical breakdown detected mid-computation."""
