"""Exception types shared across the package."""


class SoftGraspError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SoftGraspError, ValueError):
    """An argument failed validation (shape, range, or unit constraint)."""


class DegenerateInputError(InvalidInputError):
    """An operation that needs a full-dimensional set received a flat one."""


class EmptyFrameError(InvalidInputError):
    """A frame-level operation received a frame with no contacts."""


class MeshError(SoftGraspError, ValueError):
    """A tetrahedral mesh violates a structural requirement."""


class SolverError(SoftGraspError):
    """The quasi-static solver failed to converge.

    Carries the smallest residual norm the failed step reached, so callers
    can decide whether the result is still usable for diagnostics, and the
    step's Newton loop passes and fresh LU factorizations, counted as in
    fem.StepReport.
    """

    def __init__(self, message: str, residual: float = float("nan"), iterations: int = 0,
                 factorizations: int = 0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.factorizations = factorizations


class HullError(SoftGraspError):
    """qhull could not build a full-dimensional hull, even on joggled input."""


class ParseError(SoftGraspError, ValueError):
    """A file could not be parsed.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedVersionError(ParseError):
    """A file declares a format version this code does not read."""


class ConfigError(SoftGraspError, ValueError):
    """A run configuration file contained an unknown key or a bad value."""


class UndefinedCorrelationWarning(UserWarning):
    """Rank correlation is undefined (constant series); NaN was returned."""
