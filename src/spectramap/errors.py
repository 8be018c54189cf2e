"""Exception types shared across the package, and ``NAMED_ERRORS``, the set
that the command line reports as a failed run."""

import sys


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


# the classes above, plus numpy's refusal of an allocation past the memory
NAMED_ERRORS = (ConfigurationError, ParseError, GraphStructureError, KernelFitError,
                OptimizationError, EigensolverError, MemoryError)


def require_addressable(count: int, what: str) -> None:
    """Raise ``ConfigurationError`` when ``count`` 8-byte items pass the
    address space, which numpy rejects with a bare ValueError."""
    if count > sys.maxsize // 8:
        raise ConfigurationError(f"{what} exceed the address space")
