"""Error taxonomy shared across the library.

DomainError covers invalid inputs (bad parameters, malformed shapes).
RangeError covers inputs that are formally valid but drive a computation
outside the representable or supported numeric range.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class RangeError(ArithmeticError):
    """Computation left the supported numeric range."""


class SaturationError(DomainError):
    """A parameter exceeds the largest admissible value.

    The message always names the maximum so callers can correct the input.
    """

    def __init__(self, message: str, maximum: float):
        super().__init__(message)
        self.maximum = maximum


class UnsupportedOperationError(RuntimeError):
    """The operation is well defined but not available for this object."""


class UnboundedCellError(RuntimeError):
    """A Dirichlet cell failed to close within the search radius."""
