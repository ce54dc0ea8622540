"""Shared exception types."""


class ResourceLimitExceeded(RuntimeError):
    """A requested computation is beyond the configured desk-scale bounds."""


class CertificateError(AssertionError):
    """An exact certificate failed: a computed object violates what it must satisfy.

    Raised explicitly, so the check survives ``python -O``; an AssertionError
    so that callers expecting a failed assertion still catch it.
    """
