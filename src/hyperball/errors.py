"""Shared exception types.

A rejected argument is an ``InvalidArgument``, raised by the check that
rejects it; its subclasses name the rejections that callers tell apart
(``ParseError``, ``EmptySet``, ``DimMismatch``, ``SizeCapExceeded``, and
``lab.NotAdmissible``, ``metric.MetricError`` and ``metric.Disconnected``).
Only a failed self-check (``InternalError``) and the failures that happen
during a run (``refine.OracleFailure``, ``refine.PairwiseIntersectionUnverified``,
``barycenter.NoConvergence``) are not.
"""


class HyperballError(Exception):
    """Base class for all library errors."""


class InvalidArgument(HyperballError, ValueError):
    """An argument outside its domain, raised by the check that rejects it: bad input, not a bug."""


class InternalError(HyperballError):
    """A self-check of the library's own output failed: a bug, not bad input."""


class ParseError(InvalidArgument):
    """Malformed input text: a rational literal or an instance file."""


class EmptySet(InvalidArgument):
    """An operation that needs a non-empty set got an empty one."""


class DimMismatch(InvalidArgument):
    """Operands live in spaces of different dimensions."""


class SizeCapExceeded(InvalidArgument):
    """An exhaustive enumeration would exceed the configured size cap."""
