"""Exception types shared across the package."""


class GpmError(Exception):
    """Base class for all package errors."""


class CompositeInput(GpmError):
    """A number required to be prime failed the primality check."""


class DivisorMismatch(GpmError):
    """The requested divisor/cofactor does not divide p - 1."""


class DimensionMismatch(GpmError):
    """An input was built for another prime, order or pair than the call
    needs: a context of another p, a context whose d the order asked for
    does not divide, or a (p, 2k) verdict given for another pair."""


class PreconditionViolated(GpmError):
    """A formula was requested outside its range of validity."""


class NotCircular(GpmError):
    """A fixed-k formula was requested for a non-circular pair."""


class UnknownFigure(GpmError):
    """Unrecognized figure identifier."""


class ConfigInvalid(GpmError):
    """Sweep configuration failed validation."""


class IoFailure(GpmError):
    """Output file could not be written."""
