"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration input (unknown unit, bad range, malformed key)."""


class DomainError(ValueError):
    """Argument outside the mathematical or physical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A solver or series failed to converge; the message says which."""
