"""Exception types raised across the package.

Two broad families matter to callers: problems with the input data or
configuration (:class:`InputError`) and numerical failures encountered
while solving (:class:`NumericalError`). The command line tool maps the
former to exit code 2 and the latter to exit code 3. Every public count,
seed and real argument is checked by `check_count` or `check_real`.
"""

import math
import numbers
import operator


class SmfpcaError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SmfpcaError):
    """Invalid input data, file content, or configuration."""


def check_count(name, value, low, high=None, error=InputError):
    """``value`` as an int if it is an integer as `operator.index` takes
    one (not a bool, not a float) in [``low``, ``high``], no upper bound
    when ``high`` is None; else raise ``error`` naming it ``name``."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if high is not None and not low <= value <= high:
                raise error(f"{name} must lie in [{low}, {high}], got {value}")
            if value < low:
                bound = {0: "non-negative", 1: "positive"}.get(low, f"at least {low}")
                raise error(f"{name} must be {bound}, got {value}")
            return value
    raise error(f"{name} must be an integer, got {value!r}")


def check_real(name, value, low=-math.inf, strict=False, error=InputError):
    """``value`` as a float if it is a finite real number (not a bool, not
    a string) at least ``low`` (-inf or 0), or above it when ``strict``;
    else raise ``error`` naming it ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        value = float(value)
        if math.isfinite(value) and (value > low if strict else value >= low):
            return value
    bound = "" if low == -math.inf else " and positive" if strict else " and non-negative"
    raise error(f"{name} must be finite{bound}, got {value!r}")


class NumericalError(SmfpcaError):
    """A numerical procedure failed or produced an unusable result."""


class ParseError(InputError):
    """A file could not be parsed.

    Parameters
    ----------
    message : str
        Description of the problem.
    line : int, optional
        One-based line number at which parsing failed.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TopologyError(InputError):
    """The mesh violates a required topological property.

    Carries the index of the offending element when known.
    """

    def __init__(self, message, element_index=None):
        if element_index is not None:
            message = f"{message} (element {element_index})"
        super().__init__(message)
        self.element_index = element_index


class DegenerateTriangle(TopologyError):
    """A triangle has (numerically) zero area."""


class DimensionMismatch(InputError):
    """Array shapes are inconsistent with the mesh or with each other."""


class InvalidFoldCount(InputError):
    """Cross validation fold count outside the usable range."""


class ResourceLimit(InputError):
    """A requested size exceeds a hard built-in limit."""


class NotASphere(InputError):
    """A unit sphere mesh was required but vertex radii deviate from 1."""


class SingularSystem(NumericalError):
    """A sparse factorization failed because the matrix is singular."""


class ConvergenceFailure(NumericalError):
    """An iterative procedure did not reach its tolerance."""


class DegenerateData(NumericalError):
    """Data degenerate for the requested operation (e.g. identically zero)."""


class DegenerateSmoother(NumericalError):
    """No smoothing candidate produced a finite selection score."""


class RankDeficient(NumericalError):
    """A matrix expected to have full column rank does not."""


class NonMonotoneObjective(NumericalError):
    """Internal consistency check: the alternating objective increased.

    The function update solves its subproblem exactly, so the objective
    can only increase through a solver defect. This should never fire.
    """
