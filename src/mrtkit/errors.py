"""Exception and warning types shared across the package."""


class RegimeError(ValueError):
    """A physics-regime or resolution precondition is violated: the CLI's exit code 3.

    The message names the violated precondition, and the CLI reports it verbatim.
    """


class ConfigError(Exception):
    """A run configuration failed to parse or validate."""


class RegimeWarning(UserWarning):
    """The requested parameters leave the theory's validity regime."""


class IntegrationWarning(UserWarning):
    """An adaptive quadrature stopped before meeting its error tolerance."""
