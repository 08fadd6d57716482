"""Exception types shared across the package, and the default work bound."""

# the default bound on the work of one call: cosets, group order, words and
# samples; every CLI process loads this module, so reading it costs nothing
DEFAULT_MAX_COSETS = 10**6


class OrbicurveError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedSignature(OrbicurveError):
    """Signature violates the encoding rules (entry < 2, negative g or r, ...)."""


class UnknownGenerator(OrbicurveError):
    """A word refers to a generator that the presentation does not have."""


class ArityMismatch(OrbicurveError):
    """Number or degree of permutation images does not fit the presentation."""


class NonIntegralRank(OrbicurveError):
    """No torsion-free normal subgroup of the requested index can exist."""


class LcmNotDividing(OrbicurveError):
    """Requested cover index is not a multiple of lcm of the torsion orders."""


class NotOpenGroup(OrbicurveError):
    """Operation is defined for punctured (r >= 1) signatures only."""


class UnsupportedKind(OrbicurveError):
    """Torsion classification not available for this kind of group."""


class BadK(OrbicurveError):
    """k must be one of 2, 3, 4, 6."""


class NotHyperbolic(OrbicurveError):
    """Triple is not a hyperbolic triangle signature."""


class UnknownExample(OrbicurveError):
    """No named example under that identifier."""


class BadParameters(OrbicurveError):
    """Parametrized example or construction called with invalid parameters."""
