"""Shared exception types."""


class IncitoricError(Exception):
    """Base class for all package errors."""


class BadParameters(IncitoricError, ValueError):
    """Invalid (n, k, t) or similar parameter combination."""


class DimensionMismatch(IncitoricError, ValueError):
    """Vector/matrix dimensions do not agree."""


class CompositeModulus(IncitoricError, ValueError):
    """A prime was required but a composite number was supplied."""


class IndexOutOfRange(IncitoricError, ValueError):
    """A pod or subset index exceeds the ground set."""


class CertificateError(IncitoricError, RuntimeError):
    """A computed certificate failed its exact re-check."""


class BudgetExceeded(IncitoricError, RuntimeError):
    """An enumeration or pair queue outgrew its configured budget."""


class PreconditionFailed(IncitoricError, ValueError):
    """A documented precondition does not hold; the message lists which."""
