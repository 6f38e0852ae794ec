"""Exception hierarchy shared across the package.

Every error raised by the public API derives from :class:`WiretapError`, so
callers can catch one base class.  Input/parsing problems additionally derive
from ``ValueError`` where that is the natural builtin.  A check run on a stack
of instances raises for one instance and names it (:func:`at_instance`).
"""

from contextlib import contextmanager

import numpy as np


class WiretapError(Exception):
    """Base class for all errors raised by this package.

    An error raised on a stack of instances names the instance that broke the
    check: ``instance`` is its index in the stack and ``detail`` the message
    without it.  A single instance has ``instance == ()``."""

    instance: tuple = ()
    detail: str = ""


def at_instance(err: type, k: tuple, message: str) -> WiretapError:
    """``err`` for instance ``k`` of a stack, its message prefixed by
    ``instance k:``; ``k == ()`` (a single instance) keeps the message bare."""
    e = err(f"instance {k[0] if len(k) == 1 else k}: {message}" if k else message)
    e.instance, e.detail = k, message
    return e


def raise_for_first(bad: np.ndarray, err: type, describe) -> None:
    """Raise ``err`` with message ``describe(k)`` for the first instance k
    of a stack where ``bad`` (one flag per instance) holds."""
    if bad.any():
        k = tuple(int(i) for i in np.argwhere(bad)[0])
        raise at_instance(err, k, describe(k))


@contextmanager
def numbered(numbers):
    """Name the caller's instance in an error a stacked call raises: instance
    j of a one-axis stack is instance ``numbers[j]`` of the caller, a number
    or an instance tuple (``()``, a single instance, keeps the message bare)."""
    try:
        yield
    except WiretapError as e:
        if not e.instance:
            raise
        k = numbers[e.instance[0]]
        raise at_instance(type(e), k if isinstance(k, tuple) else (k,), e.detail) from None


# --- probability tables ----------------------------------------------------

class NegativeMass(WiretapError):
    """A probability entry is below the negative-mass tolerance."""


class NotNormalized(WiretapError):
    """Probability entries do not sum to one within tolerance."""


class ShapeMismatch(WiretapError):
    """Tensor shape disagrees with the declared variable cardinalities."""


class TableTooLarge(WiretapError):
    """The alphabet product exceeds the dense-table cell cap."""


class UnknownVariable(WiretapError):
    """A referenced variable name is not present in the table."""


class OverlappingSets(WiretapError):
    """Variable sets passed to an information quantity are not disjoint."""


class DimensionMismatch(WiretapError):
    """Cascade stages or matrices have incompatible dimensions."""


# --- symbolic layer ---------------------------------------------------------

class EmptyArgument(WiretapError):
    """A variable set that must be nonempty is empty."""


class CyclicStructure(WiretapError):
    """The declared factorization graph contains a directed cycle."""


# --- inequality systems -----------------------------------------------------

class ZeroCoefficient(WiretapError):
    """Substitution target has zero coefficient in the equality."""


class DuplicateSlackName(WiretapError):
    """A transfer slack name collides with an existing variable."""


class UnboundedRegion(WiretapError):
    """The system is unbounded inside the nonnegative orthant."""


class DimensionTooLarge(WiretapError):
    """Vertex enumeration requested beyond the supported dimension."""


class LPFailure(WiretapError):
    """An LP did not end optimal, or its answer failed its own check: a point
    outside its rows, or an optimum bracket wider than its tolerance."""


class ScriptStepMismatch(WiretapError):
    """A derivation-script step names an operation the replay does not know."""


# --- region evaluation ------------------------------------------------------

class NotDegraded(WiretapError):
    """Operation requires a degraded channel."""


class InconsistentAux(WiretapError):
    """Auxiliary joint violates its declared factorization."""


class UnknownCorollary(WiretapError):
    """Unrecognized specialization name."""


class BudgetZero(WiretapError):
    """Sweep budget must be at least one."""


# --- Gaussian layer ---------------------------------------------------------

class NotPSD(WiretapError):
    """Matrix is not positive semidefinite within tolerance."""


class CapExceeded(WiretapError):
    """Covariance allocation exceeds the input covariance cap."""


class SingularMatrix(WiretapError):
    """A matrix that must be invertible is singular."""


# --- Fisher-information lab -------------------------------------------------

class SingularConditionalCovariance(WiretapError):
    """Conditional covariance required to be positive definite is singular."""


class StepTooLarge(WiretapError):
    """Finite-difference step dominated by truncation error."""


class NoRoot(WiretapError):
    """The interpolation argument finds no matched covariance: the noise order
    is reversed, f - g changes no sign on [0, 1], or the root leaves the sandwich."""


class QuadratureNonConvergent(WiretapError):
    """Grid refinement did not stabilize a quadrature value, or it left its error bound."""


# --- file I/O ----------------------------------------------------------------

class ParseError(WiretapError):
    """Malformed input file; message carries line information."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(WiretapError):
    """Input parsed but failed semantic validation."""


class IoError(WiretapError):
    """Filesystem error while reading or writing."""
