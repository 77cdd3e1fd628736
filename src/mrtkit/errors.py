"""Exception and warning types shared across the package."""


class DivergentMomentError(ValueError):
    """A frequency moment of the spectrum does not converge (e.g. white noise)."""


class DecompositionError(ValueError):
    """Symmetric/antisymmetric decomposition is unavailable: no two-sided overlap of the grid."""


class RegimeError(ValueError):
    """A physics-regime or resolution precondition is violated.

    The message names the violated precondition so callers (and the CLI)
    can report it verbatim.
    """


class ConfigError(Exception):
    """A run configuration failed to parse or validate."""


class RegimeWarning(UserWarning):
    """The requested parameters leave the theory's validity regime."""


class IntegrationWarning(UserWarning):
    """An adaptive quadrature stopped before meeting its error tolerance."""
