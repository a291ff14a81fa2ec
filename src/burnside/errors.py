"""Exception types shared across the package."""


class BurnsideError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(BurnsideError):
    """Generators act on point sets of different sizes."""


class CapExceeded(BurnsideError):
    """Group closure grew past the configured order cap."""


class InvalidSubgroup(BurnsideError):
    """The given element set is not a subgroup of the parent group."""


class InvalidPrime(BurnsideError):
    """A prime parameter was not actually prime."""


class BasisMismatch(BurnsideError):
    """An element was combined with a table over a different basis."""


class NonIntegralSolution(BurnsideError):
    """A ghost vector is not in the image of the mark embedding."""


class SeparationFailure(BurnsideError):
    """A basis fails the pointwise separation condition."""


class NotLocal(BurnsideError):
    """A block summand is not local with one-dimensional residue field."""


class NegativeRank(BurnsideError):
    """The rank recurrence produced a negative value (inconsistent data)."""


class ResolutionTooLarge(BurnsideError):
    """A resolution stage exceeded the configured memory budget."""


class InvariantViolation(BurnsideError):
    """An internal cross-check found inconsistent data."""


class ParseError(BurnsideError):
    """Malformed cycle notation or group specification."""


class UnknownName(BurnsideError):
    """A named group is not in the built-in library."""
