"""Exception hierarchy for the tropsing package.

Domain errors all derive from TropsingError so the CLI can map them to a
single exit code; ParseError is reserved for malformed input (bad JSON,
bad rational literals) and maps to a distinct exit code.
"""


class TropsingError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigurationError(TropsingError):
    """Invalid point configuration (duplicates, too few points, ...)."""


class DegenerateConfigurationError(ConfigurationError):
    """All points of a configuration are collinear."""


class LatticeSaturationError(ConfigurationError):
    """The points are not exactly the lattice points of their convex hull."""


class SubdivisionError(TropsingError):
    """A marked subdivision violates the covering or face conditions."""


class ZeroTorusCoordinateError(TropsingError):
    """A torus base point must have nonzero coordinates."""


class DependentPivotsError(TropsingError):
    """The requested pivot columns are linearly dependent."""


class TooLargeError(TropsingError):
    """Flag enumeration guard exceeded (see the limit argument / --limit)."""


class MalformedFlagError(TropsingError):
    """A chain of flats does not match either admissible flag shape."""


class NotInUnionError(TropsingError):
    """The height vector cannot be rotated into any admissible weight class."""


class WrongCodimensionError(TropsingError):
    """Operation requires a secondary-fan cone of a specific codimension."""


class NotRealizableError(TropsingError):
    """A curve type admits no realization with positive edge lengths."""


class ZeroCoefficientError(TropsingError):
    """Valuation vector requested for a polynomial with a zero coefficient."""


class RetryExhaustedError(TropsingError):
    """Random sampling kept cancelling leading terms; giving up."""


class InsufficientBoundaryPointsError(TropsingError):
    """Block coefficient matrix needs >= 3 points on {y=0} and >= 2 on {y=1}."""


class ParseError(TropsingError):
    """Malformed textual input (JSON shape, rational or series literal)."""
