"""Wire protocol of the verification service: jobs, keys, framing.

One message per line, every line a JSON object (newline-delimited JSON).
Requests carry an ``"op"``; the interesting one is ``submit``, whose
``"job"`` payload this module models as a :class:`JobRequest`:

``kind``
    One of :data:`JOB_KINDS` — the five :class:`repro.api.Session`
    workloads.
``network``
    A :func:`repro.core.serialization.network_to_dict` payload.
``vectors``
    Either ``{"cube": n}`` (the exhaustive 0/1 cube,
    :class:`repro.faults.CubeVectors`, ``n`` the network's line count) or
    ``{"words": [[...], ...]}`` (an explicit test set: a non-empty list of
    integer rows, each as wide as the network).  Required by every kind
    except ``verify``.
``faults``
    Either ``{"single": true}`` / ``{"single": {"kinds": [...]}}``
    (:func:`repro.faults.enumerate_single_faults`), ``{"model": name}``
    (:func:`repro.faults.enumerate_model_faults`) or ``{"list": [...]}``
    with explicit :func:`repro.api.serialize.fault_to_dict` payloads,
    each checked against its model's declared field types and applied to
    the network (so indices, lines and stages are in range).  Required by
    the three fault kinds.
``prop`` / ``strategy`` / ``k`` / ``criterion``
    Forwarded to the matching Session method.
``timeout``
    Optional per-job limit: ``null`` (no limit) or finite seconds ``>= 0``;
    absent, the server's default applies.

:meth:`JobRequest.from_dict` validates and decodes a payload once: the
network, the vectors (explicit words become one read-only 2-D integer
array) and the fault universe are decoded, and the workload token is
built, at submit time.  Malformed input — an unknown kind, a missing
field, ragged or wrongly sized words, non-integer entries, ill-typed or
out-of-range faults, a timeout that is not null or finite seconds ``>= 0``
— raises :class:`~repro.exceptions.ServiceError` there, before anything
is persisted.

Deduplication hinges on :meth:`JobRequest.content_key`: a BLAKE2b digest
over the *structured* identity tokens of :mod:`repro.cache.keys`
(:func:`~repro.cache.keys.network_token`, then
:func:`~repro.cache.keys.cube_token` for a cube or
:func:`~repro.cache.keys.array_token` — a digest of the word array's
bytes, shape and dtype — for explicit words, then
:func:`~repro.cache.keys.faults_token`) plus the workload parameters and
the server's execution identity ``(engine, workers, chunk_size,
prune)``.  Two submissions collide exactly when the service would run
the same computation under the same configuration — formatting of the
JSON never matters, the engine does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import json
import math
from typing import Any

import numpy as np

from ..cache.keys import array_token, cube_token, faults_token, network_token
from ..core.network import ComparatorNetwork
from ..core.serialization import network_from_dict
from ..exceptions import FaultModelError, SerializationError, ServiceError
from ..faults.injection import (
    enumerate_model_faults,
    enumerate_single_faults,
)
from ..faults.models import Fault
from ..faults.simulation import CubeVectors

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRequest",
    "encode_message",
    "decode_message",
]

#: The five workloads a job can run (one per Session method).
JOB_KINDS = (
    "verify",
    "test-set",
    "fault-matrix",
    "fault-coverage",
    "diagnose",
)

#: The job state machine: ``queued`` → ``running`` → one of the
#: terminal states.  A killed server re-queues ``queued`` / ``running``
#: jobs on restart; terminal jobs replay from disk.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Job kinds that need a fault universe (every kind but ``verify`` needs
#: test vectors).
_FAULT_KINDS = ("fault-matrix", "fault-coverage", "diagnose")


def encode_message(payload: dict[str, Any]) -> bytes:
    """One protocol message as a newline-terminated JSON line.

    Parameters
    ----------
    payload : dict
        The message object.

    Returns
    -------
    bytes
        Compact UTF-8 JSON with sorted keys plus ``\\n`` — deterministic,
        so equal payloads are equal bytes on the wire.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one received line into a message object.

    Parameters
    ----------
    line : bytes or str
        A single newline-delimited JSON line.

    Returns
    -------
    dict
        The decoded object.

    Raises
    ------
    repro.exceptions.ServiceError
        If the line is not valid JSON or not a JSON object.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"undecodable message line: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError(
            f"protocol messages are JSON objects, got {type(payload).__name__}"
        )
    return payload


def _check_timeout(value: Any) -> None:
    """Refuse a ``timeout`` member that is not null or finite seconds >= 0.

    JSON ``true`` is refused rather than read as 1 s, and so are numbers
    beyond the float range, which the executor could not wait on.
    """
    if value is None:
        return
    try:
        valid = type(value) in (int, float) and math.isfinite(value) and value >= 0
    except OverflowError:  # an int beyond the float range
        valid = False
    if not valid:
        raise ServiceError(
            f"'timeout' must be null or a finite number of seconds >= 0, "
            f"got {value!r}"
        )


def _require(payload: dict[str, Any], name: str, kind: str) -> Any:
    value = payload.get(name)
    if value is None:
        raise ServiceError(f"job kind {kind!r} requires a {name!r} field")
    return value


def _decode_vectors(spec: Any, n_lines: int) -> CubeVectors | np.ndarray:
    """The vector spec as a cube or a read-only ``(words, n_lines)`` array."""
    if not isinstance(spec, dict):
        raise ServiceError("'vectors' must be an object")
    if "cube" in spec:
        if spec["cube"] != n_lines:
            raise ServiceError(
                f"'vectors.cube' must equal the network's {n_lines} lines, "
                f"got {spec['cube']!r}"
            )
        return CubeVectors(n_lines)
    if "words" in spec:
        words = spec["words"]
        if not isinstance(words, list) or not words:
            raise ServiceError("'vectors.words' must be a non-empty list")
        try:
            array = np.array(words)
        except ValueError as exc:
            raise ServiceError(
                f"'vectors.words' must be equal-length rows of integers: {exc}"
            ) from exc
        if array.ndim != 2 or array.shape[1] != n_lines:
            raise ServiceError(
                f"'vectors.words' must be a list of {n_lines}-entry rows, "
                f"got shape {array.shape}"
            )
        # JSON true / false read as 1 / 0, as Python's int() does; floats,
        # strings, nulls and integers beyond int64 are refused.
        if array.dtype.kind not in "bi":
            raise ServiceError(
                f"'vectors.words' entries must be integers, got {array.dtype}"
            )
        array = array.astype(np.int64, copy=False)
        array.flags.writeable = False
        return array
    raise ServiceError("'vectors' needs a 'cube' or 'words' member")


def _decode_faults(spec: Any, network: ComparatorNetwork) -> tuple[Fault, ...]:
    """The fault spec as an explicit, enumerated or modelled universe.

    Each explicit fault is decoded and then applied to *network*, so an
    index, line or stage out of range for it is refused here (every fault
    model range-checks in ``apply_to``), not in the executor.
    """
    from ..api.serialize import fault_from_dict

    if not isinstance(spec, dict):
        raise ServiceError("'faults' must be an object")
    if "list" in spec:
        entries = spec["list"]
        if not isinstance(entries, list) or not entries:
            raise ServiceError("'faults.list' must be a non-empty list")
        faults = []
        for index, entry in enumerate(entries):
            try:
                fault = fault_from_dict(entry)
                fault.apply_to(network)
            except (SerializationError, FaultModelError) as exc:
                raise ServiceError(f"'faults.list[{index}]': {exc}") from exc
            faults.append(fault)
        return tuple(faults)
    if "model" in spec:
        return tuple(enumerate_model_faults(network, str(spec["model"])))
    if "single" in spec:
        options = spec["single"]
        if options is True:
            return tuple(enumerate_single_faults(network))
        if isinstance(options, dict):
            kinds = tuple(str(k) for k in options.get("kinds", ()))
            if kinds:
                return tuple(enumerate_single_faults(network, kinds=kinds))
            return tuple(enumerate_single_faults(network))
        raise ServiceError("'faults.single' must be true or an object")
    raise ServiceError("'faults' needs a 'list', 'model' or 'single' member")


@dataclass(frozen=True)
class JobRequest:
    """One validated, immutable job submission (module docstring).

    Build with :meth:`from_dict` (wire payloads) or :meth:`build`
    (in-process convenience), which decode the payload once; the raw
    payload survives verbatim in :attr:`payload` so the job store can
    persist exactly what was submitted, and the accessors return the
    decoded values.

    Attributes
    ----------
    kind : str
        One of :data:`JOB_KINDS`.
    payload : dict
        The original wire payload (already validated).
    """

    kind: str
    payload: dict[str, Any]
    _network: ComparatorNetwork = field(repr=False, compare=False)
    _vectors: CubeVectors | np.ndarray | None = field(repr=False, compare=False)
    _faults: tuple[Fault, ...] | None = field(repr=False, compare=False)
    _token: tuple = field(repr=False, compare=False)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> JobRequest:
        """Validate and decode a wire payload into a :class:`JobRequest`.

        Parameters
        ----------
        payload : dict
            The ``"job"`` object of a submit message.

        Returns
        -------
        JobRequest
            The validated request, holding its decoded network, vectors,
            fault universe and workload token.

        Raises
        ------
        repro.exceptions.ServiceError
            On an unknown kind or missing / malformed fields.
        """
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
            )
        _check_timeout(payload.get("timeout"))
        data = payload.get("network")
        if not isinstance(data, dict):
            raise ServiceError("job payload lacks a 'network' object")
        network = network_from_dict(data)
        token: tuple = ("job", kind, network_token(network))
        vectors = None
        if kind == "verify":
            token += (
                str(payload.get("prop", "sorter")),
                str(payload.get("strategy", "testset")),
                int(payload.get("k", 1)),
            )
        else:
            vectors = _decode_vectors(
                _require(payload, "vectors", kind), network.n_lines
            )
            if isinstance(vectors, CubeVectors):
                if kind == "test-set":
                    raise ServiceError(
                        "test-set jobs need explicit 'words' vectors (the "
                        "exhaustive cube belongs to verify / fault kinds)"
                    )
                token += (cube_token(vectors.n),)
            else:
                token += (array_token(vectors),)
        faults = None
        if kind in _FAULT_KINDS:
            faults = _decode_faults(_require(payload, "faults", kind), network)
            token += (
                faults_token(faults),
                str(payload.get("criterion", "specification")),
            )
        return cls(kind, dict(payload), network, vectors, faults, token)

    @classmethod
    def build(
        cls,
        kind: str,
        network: ComparatorNetwork,
        *,
        vectors: dict[str, Any] | None = None,
        faults: dict[str, Any] | None = None,
        **params: Any,
    ) -> JobRequest:
        """Construct a request from in-process objects (client side).

        Parameters
        ----------
        kind : str
            One of :data:`JOB_KINDS`.
        network : ComparatorNetwork
            The device under test (serialised into the payload).
        vectors, faults : dict, optional
            Spec objects as described in the module docstring.
        **params
            Extra workload parameters (``prop``, ``strategy``, ``k``,
            ``criterion``).

        Returns
        -------
        JobRequest
            The validated request.
        """
        from ..core.serialization import network_to_dict

        payload: dict[str, Any] = {
            "kind": kind,
            "network": network_to_dict(network),
        }
        if vectors is not None:
            payload["vectors"] = vectors
        if faults is not None:
            payload["faults"] = faults
        payload.update(
            {name: value for name, value in params.items() if value is not None}
        )
        return cls.from_dict(payload)

    # -- decoded views -------------------------------------------------
    def network(self) -> ComparatorNetwork:
        """The device under test, decoded at submit time.

        Returns
        -------
        ComparatorNetwork
            The deserialised (immutable) network.
        """
        return self._network

    def vectors(self) -> CubeVectors | np.ndarray:
        """The test vectors: an exhaustive cube or an explicit word array.

        Returns
        -------
        CubeVectors or numpy.ndarray
            ``{"cube": n}`` decodes to :class:`~repro.faults.CubeVectors`,
            ``{"words": [...]}`` to one read-only ``int64`` array of shape
            ``(len(words), n_lines)`` — every Session workload method
            accepts either.

        Raises
        ------
        repro.exceptions.ServiceError
            For a ``verify`` job, which carries no vectors.
        """
        if self._vectors is None:
            raise ServiceError(f"job kind {self.kind!r} carries no vectors")
        return self._vectors

    def faults(self) -> tuple[Fault, ...]:
        """The fault universe, decoded / enumerated at submit time.

        Returns
        -------
        tuple of Fault
            Explicit faults (``{"list": ...}``), a registered model's
            canonical universe (``{"model": name}``), or the single-fault
            enumeration (``{"single": ...}``).

        Raises
        ------
        repro.exceptions.ServiceError
            For a kind that carries no fault universe.
        """
        if self._faults is None:
            raise ServiceError(f"job kind {self.kind!r} carries no faults")
        return self._faults

    def workload_token(self) -> tuple:
        """The structured identity of the computation (execution aside).

        Returns
        -------
        tuple
            Workload kind, the :mod:`repro.cache.keys` tokens of the
            network / vectors / faults, and the workload parameters.
        """
        return self._token

    def content_key(
        self, execution_identity: tuple[Any, ...] = ()
    ) -> str:
        """The dedup key: a BLAKE2b digest of the structured identity.

        Parameters
        ----------
        execution_identity : tuple, optional
            The server's ``(engine, workers, chunk_size, prune)`` — part
            of the key because a different engine configuration is a
            different (if bit-identical) computation contract.

        Returns
        -------
        str
            A 32-hex-character digest.
        """
        token = self._token + ("exec",) + tuple(execution_identity)
        digest = hashlib.blake2b(
            repr(token).encode("utf-8"), digest_size=16
        )
        return digest.hexdigest()

    def to_dict(self) -> dict[str, Any]:
        """The verbatim wire payload (for the job store).

        Returns
        -------
        dict
            The payload this request was built from.
        """
        return dict(self.payload)
