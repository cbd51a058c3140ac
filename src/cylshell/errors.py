"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage/validation problems
exit 2, numerical solver failures exit 3.  (Exit 4, a violated inequality,
is a result that ``rect-korn`` returns, not an exception.)
"""


class ParameterError(ValueError):
    """A parameter is outside its admissible range."""


class NoTrivialBranchError(ParameterError):
    """Load is at or beyond the end of the trivial branch."""


class NotDestabilizingError(ValueError):
    """Compressiveness C is not positive, so the load ratio is undefined."""


class ShapeError(ValueError):
    """Field does not have the structure an operation requires."""


class SolverError(RuntimeError):
    """A linear-algebra solver failed or missed its tolerance."""
