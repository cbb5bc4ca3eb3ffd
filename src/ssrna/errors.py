"""Exception types shared across the package, and the brief form in which their messages show a value."""


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


def brief(value: object) -> str:
    """value's repr, cut to a few dozen characters: a message that echoes a value from outside the
    program, which may be a list of a million numbers or nested a thousand deep, stays one short line."""
    import reprlib  # only a failed check needs it

    return reprlib.repr(value)
