"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library-specific failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NetworkError",
    "InvalidComparatorError",
    "LineCountError",
    "InputLengthError",
    "NotAPermutationError",
    "NotBinaryError",
    "SerializationError",
    "ServiceError",
    "ConstructionError",
    "AdversaryError",
    "TestSetError",
    "FaultModelError",
    "EngineError",
    "ExecutionConfigError",
]


class ReproError(Exception):
    """Base class for all exceptions raised by :mod:`repro`."""


class NetworkError(ReproError):
    """Base class for errors concerning comparator networks."""


class InvalidComparatorError(NetworkError, ValueError):
    """A comparator references an invalid pair of lines.

    Raised when a comparator's endpoints are equal, negative, out of range
    for the network it is attached to, or violate the *standard* orientation
    requirement (``low < high``) where one is demanded.
    """


class LineCountError(NetworkError, ValueError):
    """A network was given a non-positive or inconsistent number of lines."""


class InputLengthError(NetworkError, ValueError):
    """An input vector's length does not match the network's line count."""


class NotAPermutationError(ReproError, ValueError):
    """A sequence expected to be a permutation of ``0..n-1`` is not one."""


class SerializationError(ReproError, ValueError):
    """A serialized network or word could not be parsed."""


class ServiceError(ReproError, ValueError):
    """A :mod:`repro.serve` request is malformed or cannot be executed.

    Raised by the protocol layer for unknown job kinds, missing fields
    or undecodable payloads, and by the service for operations on
    unknown job ids.  The server catches it per-request and answers
    ``{"ok": false, "error": ...}`` instead of dropping the connection.
    """


class ConstructionError(ReproError, ValueError):
    """A classical network construction was requested with bad parameters."""


class AdversaryError(ReproError, ValueError):
    """An adversary (near-sorter / near-selector) construction is impossible.

    For example, requesting the Lemma 2.1 network ``H_sigma`` for a *sorted*
    word ``sigma``: no network can sort every word except a sorted one,
    because standard comparators never unsort a sorted input.
    """


class TestSetError(ReproError, ValueError):
    """A test-set generator or validator was used with invalid parameters."""

    __test__ = False  # not a pytest test class, despite the name


class FaultModelError(ReproError, ValueError):
    """A fault cannot be applied to the given network."""


class EngineError(ReproError, ValueError):
    """An evaluation engine was requested that does not exist or does not
    apply to the given data (e.g. the bit-packed engine on non-binary words).
    """


class NotBinaryError(EngineError):
    """A word expected to contain only 0/1 entries contains something else.

    An :class:`EngineError`: the bit-packed engine raises it when its
    packer meets non-binary data, which is how a bit-packed pin refuses a
    permutation batch.
    """


class ExecutionConfigError(ReproError, ValueError):
    """An invalid execution configuration (worker count / chunk size)."""
