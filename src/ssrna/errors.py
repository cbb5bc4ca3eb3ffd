"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all ssrna errors."""


class ParameterError(Error, ValueError):
    """A model parameter, state or configuration value is invalid."""


class StabilityDomainError(Error, ValueError):
    """Stability machinery invoked outside its domain of validity."""


class IntegrationError(Error, RuntimeError):
    """A trajectory became non-finite (step size or noise too large)."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class EnsembleError(Error, RuntimeError):
    """An ensemble could not produce statistics (all replicates aborted)."""


class KernelError(Error, RuntimeError):
    """The compiled library (_em.c) could not be built or loaded."""
