"""Exception hierarchy for the package.

Each error carries a short machine category that the CLI uses for its exit
diagnostics: "parse" (malformed input), "type" (well-formed but inconsistent
labels, shapes or signatures), "degenerate-pairing" (a singular trace
pairing blocks a construction), "check-failure" or "budget" (an enumeration
or a loaded algebra's tables would exceed the work budget).  The CLI
reports any other exception as "internal": a fault of the program, not of
its input.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all package-specific errors."""

    category = "check-failure"


class DimensionMismatch(EngineError):
    """Operands of a linear-algebra operation have incompatible sizes."""

    category = "type"


class SingularMatrix(EngineError):
    """Inversion of a matrix with zero determinant.

    When the matrix is a trace pairing this is exactly the degeneracy
    signal, so it shares the degenerate-pairing category.
    """

    category = "degenerate-pairing"


class NotAGroup(EngineError):
    """A multiplication table fails one of the group laws."""

    category = "parse"


class UnknownGroup(EngineError):
    """A builtin-group name or parameter is not recognised."""

    category = "parse"


class UnknownElement(EngineError):
    """An element name does not occur in the active group."""

    category = "parse"


class SchemaError(EngineError):
    """A group or algebra document is malformed."""

    category = "parse"


class ShapeError(EngineError):
    """A structure constant addresses a coordinate outside its graded component."""

    category = "type"


class DegeneratePairing(EngineError):
    """The trace pairing on some component is singular."""

    category = "degenerate-pairing"

    def __init__(self, sector: str, detail: str = ""):
        self.sector = sector
        message = f"degenerate pairing on component {sector!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class CoproductMismatch(EngineError):
    """The two equivalent coproduct constructions disagree.

    This can only happen when the input violates the algebra laws, so it is
    reported as a check failure rather than an internal error.
    """

    category = "check-failure"


class ParseError(EngineError):
    """Surface-word text does not match the grammar."""

    category = "parse"

    def __init__(self, message: str, line: int, column: int, expected: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class SignatureMismatch(EngineError):
    """Adjacent layers, composed words or labels fail to type-check."""

    category = "type"


class FlatnessViolation(EngineError):
    """Closed-surface holonomies whose commutator product is not the identity."""

    category = "type"


class BudgetExceeded(EngineError):
    """A brute-force enumeration or a dense table would exceed its work
    budget."""

    category = "budget"


# The most labellings, tuples or table cells one enumeration or one loaded
# algebra may hold.  `check_budget` reads it at call time, so setting it
# here bounds every estimate at once.
WORK_BUDGET = 10_000_000


def check_budget(count: int, what: str) -> None:
    """Raise BudgetExceeded when `count` of `what` exceed WORK_BUDGET, read
    at call time; called with the estimate, before any work."""
    if count > WORK_BUDGET:
        raise BudgetExceeded(f"{count} {what} exceed the budget of {WORK_BUDGET}")
