"""JSON wire format for the typed result objects of :mod:`repro.api`.

One field-driven codec serves the six result classes, their nested
records and every registered fault model.  A type's encoder and decoder
are derived from its dataclass fields and declared types once, then
cached.  Leaf types: JSON scalars for ``bool`` / ``int`` / ``float`` /
``str``; base64 text for ``bytes``; :func:`matrix_to_dict` for
``numpy.ndarray``; ``{"counters", "planned_grid"}`` for
:class:`~repro.faults.SimulationStats`; ``to_dict()`` for
:class:`~repro.observe.Trace`; :func:`fault_to_dict` for a
:class:`~repro.faults.models.Fault`, its class resolved through the
fault-model registry.  ``X | None``, ``tuple[X, ...]``, ``tuple[X, Y]``
and ``Mapping[str, X]`` compose them, and any other dataclass is an
object with one member per field.  The result classes add a ``"type"``
tag: ``execution``, ``verification``, ``test-set``, ``fault-matrix``,
``coverage`` or ``diagnosis``.

Decoding checks each value against its field's declared type (a JSON
boolean in an integer field reads as 1 / 0; a float field takes any
number), and an object must hold exactly its fields, those with a
default optional.  Every decoder raises
:class:`~repro.exceptions.SerializationError` and nothing else, naming
the field: for malformed members, bad base64, bits that do not fill
their shape and a fault model's own
:class:`~repro.exceptions.FaultModelError` alike.  :mod:`repro.serve`
relies on this to refuse a bad client fault list at submit.  The bytes
are pinned by committed golden payloads (``tests/test_wire_golden.py``).
"""

from __future__ import annotations

import base64
from collections.abc import Callable, Mapping
import dataclasses
import functools
import math
import types
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np

from .._registry import get_fault_model
from ..exceptions import FaultModelError, SerializationError
from ..faults.models import Fault
from ..faults.simulation import SimulationStats
from ..observe import Trace
from . import results

__all__ = [
    "fault_to_dict",
    "fault_from_dict",
    "matrix_to_dict",
    "matrix_from_dict",
    "result_to_dict",
    "result_from_dict",
]

_Fn = Callable[[Any], Any]
#: An encoder (``None``: the value is JSON-ready as it is) and a decoder.
_Codec = tuple[_Fn | None, _Fn]

_TAGS: dict[type, str] = {
    results.ExecutionInfo: "execution",
    results.VerificationResult: "verification",
    results.TestSetResult: "test-set",
    results.FaultMatrixResult: "fault-matrix",
    results.CoverageReport: "coverage",
    results.DiagnosisResult: "diagnosis",
}
_BY_TAG = {tag: cls for cls, tag in _TAGS.items()}
_FAULT_KEYS = frozenset({"model", "fields"})


def _refuse(expected: str, value: Any) -> SerializationError:
    return SerializationError(f"expected {expected}, got {type(value).__name__}")


def _members(value: Any, keys: frozenset[str]) -> dict[str, Any]:
    if type(value) is not dict or value.keys() != keys:
        raise SerializationError(f"expected an object of {sorted(keys)}")
    return value


def _scalar(kind: type, *coerced: type) -> _Fn:
    def decode(value: Any) -> Any:
        if type(value) is kind:
            return value
        if type(value) in coerced:
            return kind(value)
        raise _refuse(kind.__name__, value)

    return decode


_str = _scalar(str)


def _bytes_from_wire(value: Any) -> bytes:
    try:
        return base64.b64decode(_str(value), validate=True)
    except ValueError as exc:  # binascii.Error, non-ASCII text
        raise SerializationError(f"bad base64: {exc}") from exc


def _trace_from_wire(value: Any) -> Trace:
    try:
        return Trace.from_dict(value)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad trace: {exc!r}") from exc


@functools.lru_cache(maxsize=None)
def _codec(hint: Any) -> _Codec:
    """The (encode, decode) pair of one declared type."""
    if hint in _LEAVES:
        return _LEAVES[hint]
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType) and len(args) == 2 and type(None) in args:
        enc, dec = _codec(args[0] if args[1] is type(None) else args[1])
        maybe = None if enc is None else lambda v: None if v is None else enc(v)
        return maybe, lambda v: None if v is None else dec(v)
    if origin is tuple:
        variadic = args[-1] is Ellipsis  # tuple[X, ...]; else tuple[X, Y, ...]
        encs, decs = zip(*map(_codec, args[:1] if variadic else args))

        def items(v: Any) -> tuple:
            if type(v) is not list or not (variadic or len(v) == len(decs)):
                raise _refuse("a list" if variadic else f"a list of {len(decs)}", v)
            if variadic:
                return tuple(map(decs[0], v))
            return tuple([d(x) for d, x in zip(decs, v)])

        if all(e is None for e in encs):
            return list, items
        if variadic:
            return (lambda v: [encs[0](x) for x in v]), items
        return (lambda v: [x if e is None else e(x) for e, x in zip(encs, v)]), items
    if origin is Mapping and args[0] is str:
        enc, dec = _codec(args[1])

        def mapping(v: Any) -> dict[str, Any]:
            if type(v) is not dict:
                raise _refuse("an object", v)
            return {_str(k): dec(x) for k, x in v.items()}

        if enc is None:
            return dict, mapping
        return (lambda v: {k: enc(x) for k, x in v.items()}), mapping
    if isinstance(hint, type) and issubclass(hint, Fault):
        return fault_to_dict, fault_from_dict
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint)
    raise SerializationError(f"no wire form for the type {hint!r}")


@functools.lru_cache(maxsize=None)
def _dataclass_codec(cls: Any) -> tuple[_Fn, _Fn]:
    """Field-by-field codec of a dataclass, tagged if it is a result."""
    name, tag = cls.__name__, _TAGS.get(cls)
    hints = get_type_hints(cls)
    fields = dataclasses.fields(cls)
    encoders = [(f.name, _codec(hints[f.name])[0]) for f in fields]
    decoders = [(f.name, _codec(hints[f.name])[1]) for f in fields]
    required = {
        f.name
        for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }
    tagged: frozenset[str] = frozenset() if tag is None else frozenset({"type"})

    def encode(obj: Any) -> dict[str, Any]:
        out: dict[str, Any] = {} if tag is None else {"type": tag}
        for field, enc in encoders:
            value = getattr(obj, field)
            out[field] = value if enc is None else enc(value)
        return out

    def decode(payload: Any) -> Any:
        if type(payload) is not dict:
            raise _refuse(f"a {name} object", payload)
        kwargs: dict[str, Any] = {}
        for field, dec in decoders:
            try:
                kwargs[field] = dec(payload[field])
            except KeyError:
                if field in required:
                    raise SerializationError(f"{name} lacks {field!r}") from None
            except (OverflowError, SerializationError) as exc:  # huge int to float
                raise SerializationError(f"{name}.{field}: {exc}") from exc
        if len(payload) != len(kwargs) + len(tagged) or payload.get("type") != tag:
            got, want = sorted(map(str, payload)), sorted([*kwargs, *tagged])
            raise SerializationError(f"{name} has members {got}, not {want}")
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:  # FaultModelError included
            raise SerializationError(f"{name}: {exc}") from exc

    return encode, decode


def fault_to_dict(fault: Fault) -> dict[str, Any]:
    """One fault-model instance as a JSON-ready dict.

    The class name (a fault-model registry name) plus the dataclass
    fields in declaration order, recursing into nested faults and fault
    tuples — the wire twin of :func:`repro.cache.keys.fault_token`.

    Parameters
    ----------
    fault : Fault
        A (frozen dataclass) fault-model instance.

    Returns
    -------
    dict
        ``{"model": class_name, "fields": {...}}``.
    """
    fields = _dataclass_codec(type(fault))[0](fault)
    return {"model": type(fault).__name__, "fields": fields}


def fault_from_dict(payload: Any) -> Fault:
    """Rebuild a fault-model instance from :func:`fault_to_dict` output.

    The class is resolved through the fault-model registry
    (:func:`repro.api.registry.get_fault_model`), so plug-in models
    round-trip like the built-ins.  Each field is checked against its
    declared type before the model validates the instance.

    Parameters
    ----------
    payload : dict
        A ``{"model": ..., "fields": ...}`` dict.

    Returns
    -------
    Fault
        An instance equal to the one that produced *payload*.

    Raises
    ------
    repro.exceptions.SerializationError
        On an unknown model or a missing, unknown, ill-typed or rejected
        field.
    """
    model = _members(payload, _FAULT_KEYS)["model"]
    try:
        cls = get_fault_model(_str(model))
    except FaultModelError as exc:
        raise SerializationError(f"unknown fault model {model!r}") from exc
    return _dataclass_codec(cls)[1](payload["fields"])


def matrix_to_dict(matrix: np.ndarray) -> dict[str, Any]:
    """A boolean 2-D array as shape + bit-packed base64 payload.

    Parameters
    ----------
    matrix : numpy.ndarray
        Boolean array of shape ``(rows, cols)``.

    Returns
    -------
    dict
        ``{"shape": [rows, cols], "bits": base64}`` — row-major bit
        order, so the round trip is bit-identical.
    """
    data = np.asarray(matrix, dtype=bool)
    packed = np.packbits(data.reshape(-1))
    return {
        "shape": [int(dim) for dim in data.shape],
        "bits": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def matrix_from_dict(payload: Any) -> np.ndarray:
    """Rebuild the boolean array from :func:`matrix_to_dict` output.

    Parameters
    ----------
    payload : dict
        A ``{"shape": ..., "bits": ...}`` dict.

    Returns
    -------
    numpy.ndarray
        Boolean array bit-identical to the one that was packed.

    Raises
    ------
    repro.exceptions.SerializationError
        On a malformed payload or bits that do not fill the shape.
    """
    shape = _SHAPE(_members(payload, frozenset({"shape", "bits"}))["shape"])
    raw = _bytes_from_wire(payload["bits"])
    count = math.prod(shape)
    if min(shape, default=0) < 0 or len(raw) != (count + 7) // 8:
        raise SerializationError(f"{len(raw)} bytes do not fill shape {list(shape)}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count)
    try:
        return bits.reshape(shape).astype(bool)
    except ValueError as exc:  # e.g. more dimensions than numpy supports
        raise SerializationError(f"bad matrix shape: {exc}") from exc


def _stats_to_wire(stats: SimulationStats) -> dict[str, Any]:
    grid = None if stats.planned_grid is None else list(stats.planned_grid)
    return {"counters": stats.metrics.as_dict(), "planned_grid": grid}


def _stats_from_wire(payload: Any) -> SimulationStats:
    _members(payload, frozenset({"counters", "planned_grid"}))
    counters, grid = _COUNTERS(payload["counters"]), _GRID(payload["planned_grid"])
    try:
        return SimulationStats(planned_grid=grid, **counters)
    except (TypeError, ValueError) as exc:  # e.g. an unknown counter
        raise SerializationError(f"bad simulation counters: {exc}") from exc


_LEAVES: dict[Any, _Codec] = {
    bool: (None, _scalar(bool)),
    int: (None, _scalar(int, bool)),
    float: (None, _scalar(float, int, bool)),
    str: (None, _str),
    bytes: (lambda b: base64.b64encode(b).decode("ascii"), _bytes_from_wire),
    np.ndarray: (matrix_to_dict, matrix_from_dict),
    SimulationStats: (_stats_to_wire, _stats_from_wire),
    Trace: (Trace.to_dict, _trace_from_wire),
}
_SHAPE = _codec(tuple[int, ...])[1]
_GRID = _codec(tuple[int, int] | None)[1]
_COUNTERS = _codec(Mapping[str, int])[1]


def result_to_dict(result: Any) -> dict[str, Any]:
    """Any :mod:`repro.api` result object as a tagged JSON-ready dict.

    Parameters
    ----------
    result : ExecutionInfo or result dataclass
        One of the six serialisable :mod:`repro.api` types.

    Returns
    -------
    dict
        A payload whose ``"type"`` tag selects the reconstruction path
        of :func:`result_from_dict`.
    """
    if type(result) not in _TAGS:
        raise SerializationError(f"{type(result).__name__!r} is not a result type")
    return _dataclass_codec(type(result))[0](result)


def result_from_dict(payload: Any) -> Any:
    """Rebuild a result object from :func:`result_to_dict` output.

    Parameters
    ----------
    payload : dict
        A tagged payload (``"type"`` selects the dataclass).

    Returns
    -------
    ExecutionInfo or result dataclass
        An instance whose re-serialisation equals *payload* exactly.

    Raises
    ------
    repro.exceptions.SerializationError
        On an unknown tag or a member that does not match its field's
        declared type.
    """
    tag = payload.get("type") if type(payload) is dict else None
    cls = _BY_TAG.get(tag) if type(tag) is str else None
    if cls is None:
        raise SerializationError(f"unknown result payload type {tag!r}")
    return _dataclass_codec(cls)[1](payload)
