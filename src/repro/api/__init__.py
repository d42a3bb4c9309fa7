"""``repro.api`` — the stable public facade of the repro package.

One entry point for the paper's four workloads, and the only place where
execution is configured (engine pin, workers, chunk size, pruning, cache):

:class:`Session`
    Owns the execution configuration *and* the reusable resources behind
    it (persistent worker pool, result cache) and exposes
    ``verify`` / ``passes_test_set`` / ``fault_matrix`` /
    ``fault_coverage`` / ``diagnose``, each returning a typed result
    object.
:mod:`repro.api.registry`
    The fault-model registry: registered models are discoverable by
    name.
:mod:`repro.api.results`
    The frozen result dataclasses (:class:`VerificationResult`,
    :class:`TestSetResult`, :class:`FaultMatrixResult`,
    :class:`CoverageReport`) carrying verdicts bit-identical to the
    plain free functions plus timings, the engine that ran, and the
    planned work grid.
:mod:`repro.cache`
    The cross-call result cache behind the Session's ``cache=`` knob
    (re-exported here as :class:`ResultCache` / :class:`CacheStats`);
    the caching contract lives in ``docs/CACHING.md``.

The free functions (``is_sorter``, ``fault_coverage``, ...) keep their
domain arguments and run in-process; they take no execution keywords.
Like an unpinned Session they pick the kernel by value domain: 0/1 work
runs bit-packed, permutation work vectorised
(:func:`repro.core.evaluation.route_engine`).  See the README's "Public API" section for the
migration table.
"""

from ..cache.store import CacheStats, ResultCache
from . import registry
from .results import (
    CoverageReport,
    DiagnosisResult,
    ExecutionInfo,
    FaultMatrixResult,
    TestSetResult,
    VerificationResult,
)
from .session import PROPERTIES, Session

__all__ = [
    "Session",
    "PROPERTIES",
    "ExecutionInfo",
    "VerificationResult",
    "TestSetResult",
    "FaultMatrixResult",
    "CoverageReport",
    "DiagnosisResult",
    "ResultCache",
    "CacheStats",
    "registry",
]
