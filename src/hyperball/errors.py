"""Shared exception types."""


class HyperballError(Exception):
    """Base class for all library errors."""


class InvalidArgument(HyperballError, ValueError):
    """An argument outside its domain, raised by the check that rejects it: bad input, not a bug."""


class InternalError(HyperballError):
    """A self-check of the library's own output failed: a bug, not bad input."""


class EmptySet(HyperballError):
    """An operation that needs a non-empty set got an empty one."""


class DimMismatch(HyperballError):
    """Operands live in spaces of different dimensions."""


class SizeCapExceeded(HyperballError):
    """An exhaustive enumeration would exceed the configured size cap."""
