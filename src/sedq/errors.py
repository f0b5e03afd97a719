"""Exception hierarchy for the sedq package.

Everything numerical raises a subclass of :class:`SedqError`, so callers can
distinguish bad input (``InvalidParam``, ``UnstableSystem``) from numerical
failure (everything else).
"""


class SedqError(Exception):
    """Base class for all sedq errors."""


class InvalidParam(SedqError):
    """A model or solver parameter is outside its admissible range."""


class UnstableSystem(InvalidParam):
    """The offered load is at or above capacity (rho >= 1)."""


class MissingNeighbor(SedqError):
    """A balance equation referenced a state with no probability value."""


class RootCountMismatch(SedqError):
    """A kernel equation did not have the guaranteed number of in-disk roots."""


class DegenerateQuadratic(SedqError):
    """The two roots of a branch quadratic coincide."""


class DegenerateEigenvector(SedqError):
    """The eigenvector formula for the negative quadrant lost rank."""


class SingularSystem(SedqError):
    """A dense linear system was numerically singular (cond > 1e12)."""


class SearchExhausted(SedqError):
    """The convergence-index scan exceeded its cap."""


class DepthExceeded(SedqError):
    """A series evaluation asked for more compensation passes than built."""


class NoConvergenceWithinLmax(SedqError):
    """The per-state accuracy criterion was not met within the pass cap."""


class NonPositiveMass(SedqError):
    """Normalization met a negative-mass row or a non-positive total."""


class GridExceedsTruncation(SedqError):
    """A requested output grid is not covered by the solved triangle."""


class SingularGenerator(SedqError):
    """The truncated generator matrix could not be solved."""


class BoxTooSmall(SedqError):
    """The truncation box leaks too much probability mass at its edge."""
