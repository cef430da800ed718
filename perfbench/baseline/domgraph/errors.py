"""Domain error types.

The CLI maps any DomGraphError to exit status 1; usage problems (bad flags,
missing arguments) are exit status 2 and never raise these.
"""


class DomGraphError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidSizeError(DomGraphError):
    """Graph construction with an impossible or over-budget vertex count."""


class DegenerateFamilyError(InvalidSizeError):
    """Family parameters that would force a non-simple graph (C_1, C_2)."""


class InvalidSubsetError(DomGraphError):
    """Vertex subset with bits outside the host graph's vertex range."""


class TooLargeError(DomGraphError):
    """Exhaustive enumeration or search beyond the configured cap."""


class EmptyGraphError(DomGraphError):
    """Operation that needs at least one node got an empty graph."""


class InvalidSeriesError(DomGraphError):
    """Rational generating function whose denominator has a zero constant term."""


class PrecisionError(DomGraphError):
    """Floating-point closed-form evaluation too far from an integer."""


class FormulaViolationError(DomGraphError):
    """A polynomial formula produced a non-integral value; signals a bug."""
