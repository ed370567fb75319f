"""Exception types shared by every module of the package."""

__all__ = ["ValidationError", "NumericalError", "OutputError"]


class ValidationError(ValueError):
    """An argument or parameter set violates a documented contract.

    The message names the violated constraint so callers (and the CLI,
    which maps this to exit code 2) can report it without guessing.
    """


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced an invalid state.

    Mapped to exit code 3 by the CLI.
    """


class OutputError(OSError):
    """An output or manifest file could not be created, written or renamed.

    Raised by ``grid.open_output`` with the failure's errno and message;
    mapped to exit code 2 with the error kind "io" by the CLI.
    """
