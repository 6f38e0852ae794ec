"""Exception hierarchy shared across the package.

Every error raised by the public API derives from :class:`WiretapError`, so
callers can catch one base class.  Input/parsing problems additionally derive
from ``ValueError`` where that is the natural builtin.
"""


class WiretapError(Exception):
    """Base class for all errors raised by this package."""


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
    """The LP solver neither solved the LP nor proved it infeasible or unbounded."""


class ScriptStepMismatch(WiretapError):
    """A derivation-script step names an operation the replay does not know."""


# --- region evaluation ------------------------------------------------------

class NotDegraded(WiretapError):
    """Operation requires a degraded channel."""


class InconsistentAux(WiretapError):
    """Auxiliary joint violates its declared factorization."""


class UnknownCorollary(WiretapError):
    """Unrecognized specialization name."""


class NegativeRate(WiretapError):
    """A rate that must be nonnegative is negative."""


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
    """Bisection bracket does not contain a sign change."""


class QuadratureNonConvergent(WiretapError):
    """Grid refinement did not stabilize the quadrature value."""


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
