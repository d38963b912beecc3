"""Exception hierarchy shared across the package."""


class BKError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(BKError):
    pass


class DegreeTooLarge(BKError):
    pass


class NotSupported(BKError):
    pass


class BadResidue(BKError):
    pass


class CuspidalDegenerate(BKError):
    """The requested cuspidal exponent is fixed by the q-power map."""


class CongruenceFailed(BKError):
    pass


class RangeError(BKError):
    pass


class PeriodError(BKError):
    pass


class ZeroCoefficient(BKError):
    pass


class ContextMismatch(BKError):
    pass


class KindMismatch(BKError):
    pass


class InvalidShape(BKError):
    pass


class NotInPTau(BKError):
    pass


class ScalarType(BKError):
    pass


class SteinbergWeight(BKError):
    pass


class NoSolution(BKError):
    """No integer solution exists (should not happen for valid inputs)."""


class NoNonzeroMap(BKError):
    pass


class TruncationUnstable(BKError):
    """Truncated linear algebra disagreed between two precision levels."""


class InternalError(BKError):
    """A mathematical invariant failed: a bug, not bad input."""


def check(condition, message):
    """Raise InternalError unless condition holds (survives python -O)."""
    if not condition:
        raise InternalError(message + " (internal error)")
