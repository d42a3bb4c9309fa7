"""``repro.api`` — the stable public facade of the repro package.

One entry point for the paper's four workloads, and the only place where
execution is configured (engine, workers, chunk size, pruning, cache):

:class:`Session`
    Owns the execution configuration *and* the reusable resources behind
    it (persistent worker pool, scratch-plane arena) and exposes
    ``verify`` / ``passes_test_set`` / ``fault_matrix`` /
    ``fault_coverage`` / ``diagnose``, each returning a typed result
    object.
:mod:`repro.api.registry`
    The engine / fault-model registry that replaced the hard-coded
    ``EVALUATION_ENGINES`` tuple — plug-in engines become valid
    ``engine=`` choices everywhere.
:mod:`repro.api.results`
    The frozen result dataclasses (:class:`VerificationResult`,
    :class:`TestSetResult`, :class:`FaultMatrixResult`,
    :class:`CoverageReport`) carrying verdicts bit-identical to the
    plain free functions plus timings, the effective engine after
    binary-only downgrades, and the planned work grid.
:mod:`repro.cache`
    The cross-call result cache behind the Session's ``cache=`` knob
    (re-exported here as :class:`ResultCache` / :class:`CacheStats`);
    the caching contract lives in ``docs/CACHING.md``.

The free functions (``is_sorter``, ``fault_coverage``, ...) keep their
domain arguments and run the default engine in-process; they no longer
take execution keywords.  See the README's "Public API" section for the
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
