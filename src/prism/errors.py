"""Exception types shared across the library.

Every domain error raised by this package derives from PrismError, so
callers (and the CLI) can distinguish domain failures from programming
errors.
"""


class PrismError(Exception):
    """Base class for all domain errors raised by this package."""


class NotT0(PrismError):
    """Two distinct points of a finite space have identical closures."""


class InconsistentHint(PrismError):
    """A declared member height hint contradicts a computable lower bound."""


class ChecksFailed(PrismError):
    """strata was given a candidate that is not a dispersion."""


class KeyMismatch(PrismError):
    """A subgroup key does not belong to the given group."""


class DimTooLarge(PrismError):
    """Simple-summand counting is only valid in dimension <= 3."""


class NotInvariant(PrismError):
    """A subspace is not invariant under the given integer action."""


class NotDispersible(PrismError):
    """A decomposition was requested for a non-dispersible space."""


class UnsupportedGroup(PrismError):
    """The requested operation is not available for this group encoding."""
