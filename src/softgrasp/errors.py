"""Exception types shared across the package, and the value checks that
raise InvalidInputError.

Each kind of input value is checked here once: a finite number within
optional bounds, a whole number, a 3-vector and a stack of unit rows.  The
dataclasses that hold the values call these checks from __post_init__
through check_fields; the file readers check only JSON types and leave the
values to the type they build.
"""

import math

import numpy as np

# How far from 1 the length of a unit vector may be.
UNIT_TOL = 1e-6


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
    """The quasi-static solver failed to converge, or met a singular
    Newton system.

    Carries the smallest residual norm the failed step reached, so callers
    can decide whether the result is still usable for diagnostics, and the
    step's Newton loop passes, counted as in fem.StepReport (NaN and 0 for
    a singular factor at assembly).
    """

    def __init__(self, message: str, residual: float = float("nan"), iterations: int = 0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


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


def finite(value, name: str, *, above=None, least=None, below=None) -> float:
    """value as a float, when it is a finite number inside the given bounds.

    above and below are exclusive bounds, least an inclusive one.  A value
    outside them, or not finite, raises InvalidInputError naming the bounds
    ("mass must be > 0"), or "must be finite" when there are none.  A
    string is not a number, even one that float() would read.
    """
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or isinstance(value, (str, bytes)):
        raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
    if (math.isfinite(v) and (above is None or v > above) and (least is None or v >= least)
            and (below is None or v < below)):
        return v
    rule = " and ".join(f"{op} {b:g}" for op, b in ((">", above), (">=", least), ("<", below))
                        if b is not None)
    raise InvalidInputError(f"{name} must be {rule or 'finite'}")


def integer(value, name: str, least: int) -> int:
    """value as an int, when it is a whole number >= least.

    An integral float such as 8.0 passes; 3.9 raises InvalidInputError
    instead of being truncated.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if n < least:
        raise InvalidInputError(f"{name} must be >= {least}")
    return n


def vec3(value, name: str, unit: bool = False) -> np.ndarray:
    """value as a finite float 3-vector; with unit, also of unit length (UNIT_TOL)."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{name} must be a 3-vector of numbers") from None
    if v.shape != (3,):
        raise InvalidInputError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} has non-finite components")
    if unit and abs(float(np.linalg.norm(v)) - 1.0) > UNIT_TOL:
        raise InvalidInputError(f"{name} must be unit length")
    return v


def unit_rows(arr, name: str, dim: int) -> np.ndarray:
    """arr as a nonempty (k, dim) float array of finite unit rows (UNIT_TOL)."""
    a = np.atleast_2d(np.asarray(arr, dtype=float))
    if a.ndim != 2 or a.shape[1] != dim or a.shape[0] == 0:
        raise InvalidInputError(f"{name} must be a nonempty (k, {dim}) array")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} has non-finite entries")
    if np.any(np.abs(np.linalg.norm(a, axis=1) - 1.0) > UNIT_TOL):
        raise InvalidInputError(f"{name} rows must be unit vectors")
    return a


def check_fields(obj, check, *names: str, **bounds) -> None:
    """Replace each named field of obj, a frozen dataclass instance, by
    check(value, name, **bounds): the field's checked, converted value."""
    for name in names:
        object.__setattr__(obj, name, check(getattr(obj, name), name, **bounds))
