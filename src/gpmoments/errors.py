"""Exception types shared across the package."""


class GpmError(Exception):
    """Base class for all package errors."""


class CompositeInput(GpmError):
    """A number required to be prime failed the primality check."""


class DivisorMismatch(GpmError):
    """The requested divisor/cofactor does not divide p - 1."""


class DimensionMismatch(GpmError):
    """Inputs were built from contexts with different d."""


class PreconditionViolated(GpmError):
    """A formula was requested outside its range of validity."""


class NotCircular(GpmError):
    """A fixed-k formula was requested for a non-circular pair."""


class InconsistentCounts(GpmError):
    """Two exact computations of the same count disagree."""


class NonIntegralResult(GpmError):
    """A solution-count formula evaluated too far from an integer."""


class UnknownFigure(GpmError):
    """Unrecognized figure identifier."""


class ConfigInvalid(GpmError):
    """Sweep configuration failed validation."""


class IoFailure(GpmError):
    """Output file could not be written."""
