"""Typed result objects returned by the :class:`repro.api.Session` facade.

Every workload method of the Session returns a frozen dataclass instead of
a bare bool / float / ndarray, so callers get the execution metadata the
plain free functions swallow: wall-clock, the engine that ran (the pin, or
the kernel of the call's value domain, see
:func:`repro.core.evaluation.route_engine`), the worker / chunk
configuration the call actually ran with, and — for the fault workloads —
the planned (fault-shards × vector-chunks) work grid and the
:class:`repro.faults.SimulationStats` pruning counters.

The payload fields keep the exact values of the free functions (the
result objects *wrap* them, bit-identically), so migrating is mechanical:
``is_sorter(n)`` → ``Session().verify(n).verdict``,
``coverage_report(...)`` → ``session.fault_coverage(...)`` whose
:class:`CoverageReport` carries the same ``coverage`` / ``by_kind``
numbers.

Every result type (and :class:`ExecutionInfo` itself) doubles as a wire
format: ``to_json()`` / ``from_json()`` round-trip the full payload —
packed detection matrix, simulation counters, cache delta, span trace —
bit-identically through the field-driven codec of :mod:`repro.api.serialize`,
which reads the fields declared here; a malformed payload raises
:class:`~repro.exceptions.SerializationError`.  The :mod:`repro.serve`
service ships exactly these payloads over its socket.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
import json
from typing import Any, TypeVar

import numpy as np

from ..cache.store import CacheStats
from ..exceptions import SerializationError
from ..faults.diagnosis import DiagnosticResolution, FaultDictionary
from ..faults.simulation import SimulationStats
from ..observe import Trace

__all__ = [
    "ExecutionInfo",
    "VerificationResult",
    "TestSetResult",
    "FaultMatrixResult",
    "CoverageReport",
    "DiagnosisResult",
]

_R = TypeVar("_R", bound="_WireFormat")


class _WireFormat:
    """JSON wire-format methods shared by the result dataclasses.

    ``to_dict``/``to_json`` delegate to
    :func:`repro.api.serialize.result_to_dict` (imported lazily — the
    serializer imports this module at top level); the ``from_*``
    classmethods rebuild and type-check the instance, so
    ``VerificationResult.from_json(text)`` refuses a coverage payload
    instead of mis-typing it.
    """

    def to_dict(self) -> dict[str, Any]:
        """This result as a JSON-ready dict (tagged with ``"type"``).

        Returns
        -------
        dict
            The :func:`repro.api.serialize.result_to_dict` payload.
        """
        from .serialize import result_to_dict

        return result_to_dict(self)

    def to_json(self, *, indent: int | None = None) -> str:
        """This result as a canonical JSON string (sorted keys).

        Parameters
        ----------
        indent : int, optional
            Pretty-print indent; ``None`` (default) for compact output.

        Returns
        -------
        str
            Deterministic JSON — equal results serialise to equal text.
        """
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls: type[_R], payload: Mapping[str, Any]) -> _R:
        """Rebuild an instance from a :meth:`to_dict` payload.

        Parameters
        ----------
        payload : mapping
            A tagged wire dict.

        Returns
        -------
        _WireFormat
            An instance of *this* class.

        Raises
        ------
        repro.exceptions.SerializationError
            If the payload is malformed or its ``"type"`` tag decodes to
            a different result class (or is unknown).
        """
        from .serialize import result_from_dict

        result = result_from_dict(
            dict(payload) if isinstance(payload, Mapping) else payload
        )
        if not isinstance(result, cls):
            raise SerializationError(
                f"payload decodes to {type(result).__name__}, "
                f"not {cls.__name__}"
            )
        return result

    @classmethod
    def from_json(cls: type[_R], text: str) -> _R:
        """Rebuild an instance from a :meth:`to_json` string.

        Parameters
        ----------
        text : str
            JSON produced by :meth:`to_json`.

        Returns
        -------
        _WireFormat
            An instance of *this* class (see :meth:`from_dict`).

        Raises
        ------
        repro.exceptions.SerializationError
            If *text* is not JSON or not a payload of this class.
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:  # json.JSONDecodeError
            raise SerializationError(f"result text is not JSON: {exc}") from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class ExecutionInfo(_WireFormat):
    """How one Session call actually executed.

    Attributes
    ----------
    engine_requested : str or None
        The Session's engine pin, or ``None`` when it routes each call
        by value domain.
    engine_effective : str
        The engine that ran: the pin, or the kernel of the call's value
        domain (``"bitpacked"`` for 0/1 work, ``"vectorized"`` otherwise;
        see :func:`repro.core.evaluation.route_engine`).
    workers : int
        Resolved worker-process count (1 = in-process).
    chunk_words : int or None
        Streamed chunk size in words, ``None`` for single-shot execution.
    grid_shape : tuple of (int, int) or None
        Planned (fault-shards × vector-chunks) work grid of a fault
        workload; ``(1, 1)`` for a serial single-chunk run, ``None`` for
        the non-fault workloads.
    seconds : float
        Wall-clock of the call (the root span of :attr:`trace`; kept as
        a plain float for compatibility).
    cache : CacheStats or None
        What this call took from / added to the Session's result cache
        (counter fields are per-call deltas, ``stored_bytes`` / ``entries``
        are the store's state after the call); ``None`` when the Session
        runs uncached.  See ``docs/CACHING.md``.
    trace : repro.observe.Trace or None
        The call's span tree: one root span per workload with nested
        phase spans and the call's counter totals (simulation counters,
        per-call cache deltas) attached.  ``None``
        when span capture is disabled
        (:func:`repro.observe.set_observation_enabled`).  Export with
        ``trace.to_json()`` or the CLI's ``--trace`` flag.
    """

    engine_requested: str | None
    engine_effective: str
    workers: int
    chunk_words: int | None
    grid_shape: tuple[int, int] | None
    seconds: float
    cache: CacheStats | None = None
    trace: Trace | None = None


@dataclass(frozen=True)
class VerificationResult(_WireFormat):
    """Outcome of :meth:`repro.api.Session.verify`.

    Attributes
    ----------
    verdict : bool
        Does the network have the property?
    property_name : {"sorter", "selector", "merger"}
        The property that was checked.
    strategy : str
        Verification strategy (see the property checkers' docstrings).
    k : int or None
        Selection order for the selector property, ``None`` otherwise.
    n_lines : int
        Line count of the verified network.
    execution : ExecutionInfo
        Timing and effective-engine metadata.
    """

    verdict: bool
    property_name: str
    strategy: str
    k: int | None
    n_lines: int
    execution: ExecutionInfo

    def __bool__(self) -> bool:
        """Truthiness follows the verdict (drop-in for the legacy bool)."""
        return self.verdict


@dataclass(frozen=True)
class TestSetResult(_WireFormat):
    """Outcome of :meth:`repro.api.Session.passes_test_set`.

    Attributes
    ----------
    passed : bool
        ``True`` iff every applied word came out sorted.
    vectors_used : int
        Number of test words applied.
    n_lines : int
        Line count of the device under test.
    execution : ExecutionInfo
        Timing and effective-engine metadata.
    """

    __test__ = False  # not a pytest test class, despite the name

    passed: bool
    vectors_used: int
    n_lines: int
    execution: ExecutionInfo

    def __bool__(self) -> bool:
        """Truthiness follows the verdict (drop-in for the legacy bool)."""
        return self.passed


@dataclass(frozen=True)
class FaultMatrixResult(_WireFormat):
    """Outcome of :meth:`repro.api.Session.fault_matrix`.

    Attributes
    ----------
    matrix : numpy.ndarray
        The boolean ``(num_faults, num_vectors)`` detection matrix —
        bit-identical to
        :func:`repro.faults.simulation.fault_detection_matrix`.
    criterion : {"specification", "reference"}
        Detection criterion.
    num_faults, num_vectors : int
        Matrix dimensions.
    stats : SimulationStats
        Pruning / work counters of the run (all-zero for the non-pruned
        engines).
    execution : ExecutionInfo
        Timing, effective engine and the planned work grid.
    """

    matrix: np.ndarray = field(repr=False)
    criterion: str
    num_faults: int
    num_vectors: int
    stats: SimulationStats
    execution: ExecutionInfo

    @property
    def detected(self) -> np.ndarray:
        """Per-fault any-vector detection verdicts (``matrix.any(axis=1)``)."""
        return self.matrix.any(axis=1)


@dataclass(frozen=True)
class CoverageReport(_WireFormat):
    """Outcome of :meth:`repro.api.Session.fault_coverage`.

    Same payload as the legacy :class:`repro.faults.coverage.CoverageReport`
    (field for field), extended with the detection criterion, the
    simulation counters and the execution metadata.

    Attributes
    ----------
    total_faults : int
        Number of faults simulated.
    detected_faults : int
        Number detected by at least one vector.
    coverage : float
        ``detected_faults / total_faults`` (1.0 when there are no faults).
    by_kind : mapping of str to (int, int)
        Fault class name → ``(detected, total)``.
    vectors_used : int
        Number of test vectors applied.
    criterion : {"specification", "reference"}
        Detection criterion.
    stats : SimulationStats
        Pruning / work counters of the run.
    execution : ExecutionInfo
        Timing, effective engine and the planned work grid.
    resolution : DiagnosticResolution or None
        Diagnostic-resolution report of the same run; populated by
        :meth:`repro.api.Session.diagnose` (which materialises the
        detection matrix), ``None`` for the constant-memory
        :meth:`repro.api.Session.fault_coverage` path.
    """

    total_faults: int
    detected_faults: int
    coverage: float
    by_kind: Mapping[str, tuple[int, int]]
    vectors_used: int
    criterion: str
    stats: SimulationStats
    execution: ExecutionInfo
    resolution: DiagnosticResolution | None = None


@dataclass(frozen=True)
class DiagnosisResult(_WireFormat):
    """Outcome of :meth:`repro.api.Session.diagnose`.

    Attributes
    ----------
    dictionary : FaultDictionary
        Signature → candidate-fault-class dictionary built from the
        detection matrix (see :mod:`repro.faults.diagnosis`).
    resolution : DiagnosticResolution
        Class counts / singleton fraction / undetected residue of the
        dictionary.
    test_order : tuple of int
        Adaptive vector order (greedy class splitting); a prefix reaching
        the dictionary's full resolution, see
        :func:`repro.faults.diagnosis.adaptive_test_order`.
    coverage : CoverageReport
        The detection-side report of the same run, with
        :attr:`CoverageReport.resolution` populated.
    criterion : {"specification", "reference"}
        Detection criterion.
    num_faults, num_vectors : int
        Dimensions of the underlying detection matrix.
    stats : SimulationStats
        Pruning / work counters of the run.
    execution : ExecutionInfo
        Timing, effective engine and the planned work grid.
    """

    dictionary: FaultDictionary = field(repr=False)
    resolution: DiagnosticResolution
    test_order: tuple[int, ...]
    coverage: CoverageReport
    criterion: str
    num_faults: int
    num_vectors: int
    stats: SimulationStats
    execution: ExecutionInfo
