"""The :class:`Session` facade: one configured entry point for all workloads.

A Session is the one place where execution is configured — evaluation
engine, worker count, chunk size and pruning policy — and it owns the
*resources* behind them: a lazily-created persistent worker pool
(:class:`repro.parallel.WorkerPool`), reused across calls so repeated
workloads pay the spawn cost once, and an optional result cache.  Scratch
planes are not a Session resource: every fault-simulation call takes them
from its thread's :func:`repro.core.scratch.shared_arena` cache, exactly
as the free functions do, so one serial, uncached Session may be called
from several threads at once.  Its worker pool and a ``cache=True`` store
are not thread-safe.

The four paper workloads run through it::

    from repro.api import Session

    session = Session(workers=4)
    session.verify(network, "sorter")             # VerificationResult
    session.passes_test_set(network, words)        # TestSetResult
    session.fault_matrix(network, faults, words)   # FaultMatrixResult
    session.fault_coverage(network, faults, words) # CoverageReport
    session.diagnose(network, faults, words)       # DiagnosisResult
    session.close()                                # or: with Session(...) as s:

Results are **bit-identical** to the plain free functions (the Session
calls the same implementations with its configuration); the result objects
add timings, the engine that ran, and the planned work grid.

With no ``engine`` pin, each call is routed by its value domain
(:func:`repro.core.evaluation.route_engine`): 0/1 work — the ``binary``
and ``testset`` strategies, 0/1 word lists and arrays,
:class:`~repro.faults.CubeVectors` — runs bit-packed, everything else
vectorised.  The engine is resolved once, where the call's domain is
first known, passed down, and reported as
:attr:`ExecutionInfo.engine_effective <repro.api.ExecutionInfo.engine_effective>`.
A pin (``"scalar"``, ``"vectorized"``, ``"bitpacked"``) runs that engine
or raises :class:`~repro.exceptions.EngineError`; it is for oracles and
engine comparisons.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
import os

import numpy as np

from .._typing import WordLike
from ..cache.store import CacheStats, ResultCache, resolve_cache
from ..core.evaluation import check_engine, route_engine, route_words
from ..core.network import ComparatorNetwork
from ..exceptions import ExecutionConfigError, TestSetError
from ..faults.coverage import _coverage_report_impl
from ..faults.diagnosis import adaptive_test_order, fault_dictionary_from_matrix
from ..faults.models import Fault
from ..observe import Trace
from ..faults.simulation import (
    CubeVectors,
    SimulationStats,
    _fault_detection_matrix_impl,
    _route_vectors,
)
from ..parallel.config import ExecutionConfig
from ..parallel.pool import WorkerPool
from ..properties.merger import _is_merger_impl
from ..properties.selector import _is_selector_impl
from ..properties.sorter import _is_sorter_impl
from ..testsets.validation import _network_passes_test_set_impl
from .results import (
    CoverageReport,
    DiagnosisResult,
    ExecutionInfo,
    FaultMatrixResult,
    TestSetResult,
    VerificationResult,
)

__all__ = ["Session", "PROPERTIES"]

#: The verifiable network properties (first argument of :meth:`Session.verify`).
PROPERTIES = ("sorter", "selector", "merger")


def _env_bool(name: str, default: bool) -> bool:
    value = os.environ.get(name)
    if value is None:
        return default
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ExecutionConfigError(f"{name} must be a boolean-ish value, got {value!r}")


class Session:
    """A configured execution context for verification and fault workloads.

    Parameters
    ----------
    engine : str or None, optional
        ``None`` (default) routes each call by its value domain: 0/1 work
        runs ``"bitpacked"``, everything else ``"vectorized"``.  An engine
        name (``"scalar"``, ``"vectorized"``, ``"bitpacked"``) pins every
        call to it, for oracles and engine comparisons; a bit-packed pin
        given non-0/1 input raises :class:`~repro.exceptions.EngineError`.
    workers : int, optional
        Worker-process count: ``1`` (default) runs in-process, ``0`` means
        one worker per CPU, anything above 1 shards the work axes across a
        **persistent** pool owned by the Session (spawned on first use,
        reused by every later call, shut down by :meth:`close`).
    chunk_size : int or None, optional
        Words per streamed chunk; any explicit value activates
        constant-memory streaming exactly like
        :class:`repro.parallel.ExecutionConfig`.
    prune : bool, optional
        Dominated-state pruning in the bit-packed fault simulator
        (default ``True``; results are identical either way).
    cache : ResultCache, bool, int or None, optional
        Cross-call result cache (:mod:`repro.cache`; contract in
        ``docs/CACHING.md``).  ``None`` / ``False`` (default) runs
        uncached; ``True`` creates a Session-owned
        :class:`~repro.cache.ResultCache` at the default byte bound; an
        ``int`` is an explicit ``max_bytes`` bound; an explicit
        :class:`~repro.cache.ResultCache` is shared (e.g. across
        Sessions).  Cached calls are **bit-identical** to uncached ones;
        each call's take is reported on
        :attr:`ExecutionInfo.cache <repro.api.ExecutionInfo.cache>`.

    Examples
    --------
    >>> from repro.api import Session
    >>> from repro.constructions import batcher_sorting_network
    >>> with Session() as session:
    ...     result = session.verify(batcher_sorting_network(4), "sorter")
    >>> bool(result)
    True
    >>> result.execution.engine_effective
    'bitpacked'
    """

    def __init__(
        self,
        *,
        engine: str | None = None,
        workers: int = 1,
        chunk_size: int | None = None,
        prune: bool = True,
        cache: ResultCache | bool | int | None = None,
    ) -> None:
        self.engine = None if engine is None else check_engine(engine)
        if workers < 0:
            raise ExecutionConfigError(
                f"workers must be >= 0 (0 = one per CPU), got {workers}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ExecutionConfigError(
                f"chunk_size must be >= 1 words, got {chunk_size}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.prune = prune
        # ``True`` builds a Session-owned store (the process-wide
        # ``default_cache`` stays reserved for the opt-in analysis
        # helpers); everything else follows ``resolve_cache``.
        self.cache = ResultCache() if cache is True else resolve_cache(cache)
        self._pool: WorkerPool | None = None

    # ------------------------------------------------------------------
    # Construction helpers and lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> Session:
        """A Session configured from ``REPRO_*`` environment variables.

        Recognised variables (all optional): ``REPRO_ENGINE`` (an engine
        pin; unset routes by value domain), ``REPRO_WORKERS`` (int, 0 =
        one per CPU), ``REPRO_CHUNK_SIZE`` (words per streamed chunk),
        ``REPRO_PRUNE`` (bool), ``REPRO_CACHE`` (bool; ``1`` enables a
        Session-owned result cache).
        """
        chunk = os.environ.get("REPRO_CHUNK_SIZE")
        return cls(
            engine=os.environ.get("REPRO_ENGINE"),
            workers=int(os.environ.get("REPRO_WORKERS", "1")),
            chunk_size=int(chunk) if chunk else None,
            prune=_env_bool("REPRO_PRUNE", True),
            cache=_env_bool("REPRO_CACHE", False),
        )

    def close(self) -> None:
        """Release the Session's resources (worker pool); idempotent.

        The Session stays usable — a later parallel call simply respawns
        the pool.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> Session:
        """Context-manager entry (returns the Session itself)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    def __repr__(self) -> str:
        """Knob summary (pool state included for debugging)."""
        return (
            f"Session(engine={self.engine!r}, workers={self.workers}, "
            f"chunk_size={self.chunk_size}, prune={self.prune}, "
            f"cache={'off' if self.cache is None else self.cache!r}, "
            f"pool={'live' if self._pool is not None and self._pool.active else 'idle'})"
        )

    def _config(self) -> ExecutionConfig | None:
        """The per-call :class:`ExecutionConfig`, or ``None`` for the
        legacy single-shot path (workers=1, no chunking)."""
        if self.workers == 1 and self.chunk_size is None:
            return None
        pool = None
        if self.workers != 1:
            if self._pool is None:
                self._pool = WorkerPool(self.workers)
            pool = self._pool
        return ExecutionConfig(
            max_workers=self.workers, chunk_size=self.chunk_size, pool=pool
        )

    # ------------------------------------------------------------------
    # Execution metadata
    # ------------------------------------------------------------------
    def _resolved_workers(self, config: ExecutionConfig | None) -> int:
        return config.resolved_workers() if config is not None else 1

    def _chunk_words(self, config: ExecutionConfig | None) -> int | None:
        if config is None or not config.streaming:
            return None
        return config.chunk_words()

    def _cache_before(self) -> CacheStats | None:
        """Counter snapshot taken at the start of a workload call."""
        return self.cache.stats() if self.cache is not None else None

    def _execution_info(
        self,
        config: ExecutionConfig | None,
        engine: str,
        grid_shape: tuple[int, int] | None,
        trace: Trace,
        cache_before: CacheStats | None = None,
        *,
        stats: SimulationStats | None = None,
    ) -> ExecutionInfo:
        """Assemble the call's :class:`ExecutionInfo` from its trace.

        *engine* is the engine the call resolved and ran; it lands in the
        root span's ``engine`` meta.  Attaches the call's counter totals
        to the root span — simulation counters (when *stats* ran) and
        per-call cache deltas under a ``cache.`` prefix — so the exported
        trace carries exactly the numbers the legacy stats classes
        report.  ``seconds`` is the root span's wall-clock; with span
        capture disabled (:func:`repro.observe.set_observation_enabled`)
        the trace is empty, ``seconds`` reads 0.0 and ``trace`` is None.
        """
        cache_stats = None
        if self.cache is not None and cache_before is not None:
            cache_stats = self.cache.stats().delta(cache_before)
        root = trace.root
        if root is not None:
            root.meta["engine"] = engine
            if stats is not None:
                root.add_counters(stats.metrics.as_dict())
            if cache_stats is not None:
                root.add_counters({
                    f"cache.{name}": getattr(cache_stats, name)
                    for name in CacheStats._COUNTERS
                })
        return ExecutionInfo(
            engine_requested=self.engine,
            engine_effective=engine,
            workers=self._resolved_workers(config),
            chunk_words=self._chunk_words(config),
            grid_shape=grid_shape,
            seconds=root.seconds if root is not None else 0.0,
            cache=cache_stats,
            trace=trace if root is not None else None,
        )

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------
    def verify(
        self,
        network: ComparatorNetwork,
        prop: str = "sorter",
        *,
        k: int = 1,
        strategy: str = "testset",
    ) -> VerificationResult:
        """Verify a network property (sorter / selector / merger).

        Parameters
        ----------
        network : ComparatorNetwork
            The device under verification.
        prop : {"sorter", "selector", "merger"}, optional
            The property to check.
        k : int, optional
            Selection order for ``prop="selector"`` (ignored otherwise).
        strategy : str, optional
            Verification strategy, forwarded to the property checker
            (``"binary"``, ``"testset"``, ``"permutation"``,
            ``"permutation-testset"``).

        Returns
        -------
        VerificationResult
            The verdict plus execution metadata; truthiness follows the
            verdict, so ``if session.verify(network):`` reads naturally.
        """
        if prop not in PROPERTIES:
            raise TestSetError(
                f"unknown property {prop!r}; choose one of {PROPERTIES}"
            )
        engine = route_engine(self.engine, strategy)
        config = self._config()
        cache_before = self._cache_before()
        trace = Trace()
        with trace.span(
            "session.verify", property=prop, strategy=strategy,
            n_lines=network.n_lines,
        ):
            with trace.span(prop):
                if prop == "sorter":
                    verdict = _is_sorter_impl(
                        network, strategy=strategy, engine=engine,
                        config=config, cache=self.cache,
                    )
                elif prop == "selector":
                    verdict = _is_selector_impl(
                        network, k, strategy=strategy, engine=engine,
                        config=config,
                    )
                else:
                    verdict = _is_merger_impl(
                        network, strategy=strategy, engine=engine,
                        config=config,
                    )
        return VerificationResult(
            verdict=verdict,
            property_name=prop,
            strategy=strategy,
            k=k if prop == "selector" else None,
            n_lines=network.n_lines,
            execution=self._execution_info(
                config, engine, None, trace, cache_before
            ),
        )

    def passes_test_set(
        self,
        network: ComparatorNetwork,
        test_words: Iterable[WordLike],
    ) -> TestSetResult:
        """Apply a test set to a device (the paper's decision procedure).

        Parameters
        ----------
        network : ComparatorNetwork
            The device under test.
        test_words : iterable of words
            The test set; binary words and permutations both work.

        Returns
        -------
        TestSetResult
            ``passed`` iff every observed output was sorted, plus
            execution metadata.
        """
        words = (
            test_words if isinstance(test_words, np.ndarray) else list(test_words)
        )
        # A flat sequence of values is one word, as ``words_to_array``
        # reads it (a 1-D array of n values is applied once, not n times).
        vectors = 1 if len(words) and np.ndim(words[0]) == 0 else len(words)
        config = self._config()
        cache_before = self._cache_before()
        trace = Trace()
        with trace.span(
            "session.passes_test_set", n_lines=network.n_lines, vectors=vectors
        ):
            engine, routed = route_words(self.engine, words, network.n_lines)
            with trace.span("apply_test_set"):
                passed = _network_passes_test_set_impl(
                    network, routed, engine=engine, config=config,
                    cache=self.cache,
                )
        return TestSetResult(
            passed=passed,
            vectors_used=vectors,
            n_lines=network.n_lines,
            execution=self._execution_info(
                config, engine, None, trace, cache_before
            ),
        )

    def fault_matrix(
        self,
        network: ComparatorNetwork,
        faults: Sequence[Fault],
        test_vectors: Sequence[WordLike] | CubeVectors,
        *,
        criterion: str = "specification",
    ) -> FaultMatrixResult:
        """The full boolean fault-detection matrix ``D[f, t]``.

        Parameters
        ----------
        network : ComparatorNetwork
            The fault-free reference device.
        faults : sequence of Fault
            Faults to simulate, one matrix row each.
        test_vectors : sequence of words, 2-D array, or CubeVectors
            Vectors to apply, one matrix column each.
        criterion : {"specification", "reference"}, optional
            Detection criterion.

        Returns
        -------
        FaultMatrixResult
            The matrix (bit-identical to the legacy free function), the
            :class:`~repro.faults.SimulationStats` counters and execution
            metadata including the planned work grid.
        """
        config = self._config()
        stats = SimulationStats()
        cache_before = self._cache_before()
        trace = Trace()
        with trace.span(
            "session.fault_matrix", criterion=criterion, n_lines=network.n_lines
        ):
            engine, test_vectors = _route_vectors(
                self.engine, test_vectors, network.n_lines
            )
            with trace.span("simulate"):
                matrix = _fault_detection_matrix_impl(
                    network,
                    faults,
                    test_vectors,
                    criterion=criterion,
                    engine=engine,
                    config=config,
                    prune=self.prune,
                    stats=stats,
                    cache=self.cache,
                )
        return FaultMatrixResult(
            matrix=matrix,
            criterion=criterion,
            num_faults=matrix.shape[0],
            num_vectors=matrix.shape[1],
            stats=stats,
            execution=self._execution_info(
                config, engine, stats.planned_grid, trace, cache_before,
                stats=stats,
            ),
        )

    def fault_coverage(
        self,
        network: ComparatorNetwork,
        faults: Sequence[Fault],
        test_vectors: Sequence[WordLike] | CubeVectors,
        *,
        criterion: str = "specification",
    ) -> CoverageReport:
        """Fault coverage of a test set, with the per-kind breakdown.

        The constant-memory any-reduction path: the per-vector matrix is
        never materialised, so exhaustive (:class:`~repro.faults.CubeVectors`)
        test sets run at any ``n``.

        Parameters are those of :meth:`fault_matrix`.

        Returns
        -------
        CoverageReport
            Coverage numbers bit-identical to
            :func:`repro.faults.coverage.coverage_report`, plus the
            simulation counters and execution metadata.
        """
        config = self._config()
        stats = SimulationStats()
        cache_before = self._cache_before()
        trace = Trace()
        with trace.span(
            "session.fault_coverage", criterion=criterion, n_lines=network.n_lines
        ):
            engine, test_vectors = _route_vectors(
                self.engine, test_vectors, network.n_lines
            )
            with trace.span("simulate"):
                legacy = _coverage_report_impl(
                    network,
                    faults,
                    test_vectors,
                    criterion=criterion,
                    engine=engine,
                    config=config,
                    prune=self.prune,
                    stats=stats,
                    cache=self.cache,
                )
        return CoverageReport(
            total_faults=legacy.total_faults,
            detected_faults=legacy.detected_faults,
            coverage=legacy.coverage,
            by_kind=legacy.by_kind,
            vectors_used=legacy.vectors_used,
            criterion=criterion,
            stats=stats,
            execution=self._execution_info(
                config, engine, stats.planned_grid, trace, cache_before,
                stats=stats,
            ),
        )

    def diagnose(
        self,
        network: ComparatorNetwork,
        faults: Sequence[Fault],
        test_vectors: Sequence[WordLike] | CubeVectors,
        *,
        criterion: str = "specification",
    ) -> DiagnosisResult:
        """Build a fault dictionary and its diagnostic-resolution report.

        Runs the detection matrix through the Session's engine / sharding /
        cache configuration, groups faults with identical detection
        signatures into candidate classes
        (:class:`~repro.faults.FaultDictionary`), computes the
        :class:`~repro.faults.DiagnosticResolution` of the test set and the
        greedy adaptive vector order
        (:func:`repro.faults.diagnosis.adaptive_test_order`).  Unlike
        :meth:`fault_coverage` this materialises the per-vector matrix, so
        cube-scale test sets are out of scope — pass an explicit vector
        list.

        Parameters are those of :meth:`fault_matrix`.

        Returns
        -------
        DiagnosisResult
            The dictionary, resolution report, adaptive test order and a
            :class:`CoverageReport` of the same run (its ``resolution``
            field populated).
        """
        config = self._config()
        stats = SimulationStats()
        cache_before = self._cache_before()
        trace = Trace()
        with trace.span(
            "session.diagnose", criterion=criterion, n_lines=network.n_lines
        ):
            engine, test_vectors = _route_vectors(
                self.engine, test_vectors, network.n_lines
            )
            with trace.span("matrix"):
                matrix = _fault_detection_matrix_impl(
                    network,
                    faults,
                    test_vectors,
                    criterion=criterion,
                    engine=engine,
                    config=config,
                    prune=self.prune,
                    stats=stats,
                    cache=self.cache,
                )
            with trace.span("dictionary"):
                dictionary = fault_dictionary_from_matrix(
                    faults, matrix, criterion=criterion
                )
            with trace.span("resolution"):
                resolution = dictionary.resolution()
            with trace.span("adaptive_order"):
                test_order = tuple(adaptive_test_order(matrix))
        execution = self._execution_info(
            config, engine, stats.planned_grid, trace, cache_before,
            stats=stats,
        )
        detected = matrix.any(axis=1)
        by_kind: dict[str, tuple[int, int]] = {}
        for fault, hit in zip(faults, detected):
            kind = type(fault).__name__
            found, total = by_kind.get(kind, (0, 0))
            by_kind[kind] = (found + int(hit), total + 1)
        total_faults = int(matrix.shape[0])
        detected_count = int(detected.sum())
        coverage = CoverageReport(
            total_faults=total_faults,
            detected_faults=detected_count,
            coverage=(detected_count / total_faults) if total_faults else 1.0,
            by_kind=by_kind,
            vectors_used=int(matrix.shape[1]),
            criterion=criterion,
            stats=stats,
            execution=execution,
            resolution=resolution,
        )
        return DiagnosisResult(
            dictionary=dictionary,
            resolution=resolution,
            test_order=test_order,
            coverage=coverage,
            criterion=criterion,
            num_faults=total_faults,
            num_vectors=int(matrix.shape[1]),
            stats=stats,
            execution=execution,
        )

    def compare_test_sets(
        self,
        network: ComparatorNetwork,
        faults: Sequence[Fault],
        test_sets: Mapping[str, Sequence[WordLike] | CubeVectors],
        *,
        criterion: str = "specification",
    ) -> dict[str, CoverageReport]:
        """Coverage of several named test sets (one report per entry).

        The Session-native form of
        :func:`repro.faults.coverage.compare_test_sets`: the same pool (and
        cache) serve every entry, so comparing many candidate sets
        amortises the setup cost once.
        """
        return {
            name: self.fault_coverage(
                network, faults, vectors, criterion=criterion
            )
            for name, vectors in test_sets.items()
        }
