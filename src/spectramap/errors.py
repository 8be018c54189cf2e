"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised when parameters violate an operation's preconditions."""


class ParseError(ValueError):
    """Raised when an input file cannot be parsed; names the offending row/column."""


class GraphStructureError(ValueError):
    """Raised when a graph violates a structural requirement (e.g. isolated vertex)."""


class KernelFitError(RuntimeError):
    """Raised when the nonlinear least-squares kernel fit fails to converge."""


class OptimizationError(RuntimeError):
    """Raised when the embedding optimizer hits a non-finite state."""


class EigensolverError(RuntimeError):
    """Raised when an eigensolver does not converge or misses its residual tolerance."""
