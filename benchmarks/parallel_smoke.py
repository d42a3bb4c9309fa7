"""Benchmark smoke run for the parallel subsystem → BENCH_parallel.json.

Seven workloads, all cross-checked for bit-identical results before timing:

* **Streamed exhaustive verification** — sortedness of a Batcher sorter
  over the full ``2**n`` cube (default ``n = 24``), comparing the
  single-shot bit-packed engine against the streamed engine (fixed-size
  block ranges, constant memory) serially and across worker processes.
* **Sharded fault simulation** — the extended single-fault universe of a
  Batcher sorter (default ``n = 18``; comparator faults plus line
  stuck-at faults at *every* stage, ``line_stuck_at_input_only=False``)
  against the paper's Theorem 2.2 test set (as a vector array, the
  zero-copy fast path), comparing the single-process bit-packed engine
  against the fault-axis-sharded pool (delta-compressed fault-free prefix
  states computed once and published through shared memory).  The sharded
  detection matrix must be *exactly* equal, and the multi-worker run must
  beat the single-process run by ``--min-speedup`` (the CI quality gate;
  set 0 to skip, e.g. on single-core machines).
* **Dominated-state pruning** — the same fault universe run through the
  streamed coverage path (``fault_detection_any``, vector chunks of
  ``2**16`` words) with and without pruning.  The detected-fault vectors
  must be identical, the streamed cube matrix must equal the explicit-cube
  matrix at a small cross-check size, and the pruned run must beat the
  unpruned run by ``--min-prune-speedup`` (second CI gate).
* **Scratch-plane arena** — the pruned coverage run with the
  allocation-free arena engine (the default) against the preserved PR-3
  allocating path (``arena=False``).  Verdicts and
  ``SimulationStats`` counters must be identical, the arena engine must
  beat the allocating path by ``--min-arena-speedup`` (third CI gate), and
  a tracemalloc probe of the pruned hot loop at ``--alloc-n`` asserts the
  arena's peak allocation does not regress past the allocating path's
  (the allocation counter recorded in the JSON report).
* **Incremental re-verification** — the mutate-one-comparator retest
  loop (default ``n = 16``): verify an incumbent Batcher sorter, then
  for each of a dozen single-comparator mutants verify the candidate and
  re-verify the incumbent, through a warm cache-enabled
  ``Session(cache=True)`` vs a cold ``Session(cache=False)``.  Verdicts
  must be identical (the bit-identity contract of ``docs/CACHING.md``),
  and the warm loop must beat the cold loop by
  ``--min-incremental-speedup`` (fifth CI gate): the incumbent re-checks
  are verdict-memo hits and each mutant restores the longest cached
  comparator prefix and re-simulates only its suffix.
* **Multi-fault diagnosis** — the pruned ``k = 2`` :class:`MultiFault`
  universe of a Batcher sorter (default ``n = 7``; the registry's
  canonical composite universe over the comparator single faults) against
  the Theorem 2.2 test set, diagnosed through ``Session.diagnose``.  The
  fault-axis-sharded pool and the verdict-memo cache must reproduce the
  serial run's fault dictionary, diagnostic-resolution report and
  adaptive test order *exactly* (the flag-less
  ``multi_fault_diagnosis_exact`` gate); the report records the
  dictionary-build time (serial vs warm cache) and the resolution
  numbers (classes, singletons, undetected residue).
* **Session reuse** — repeated ``fault_coverage`` calls through the
  :class:`repro.api.Session` facade vs the legacy free functions
  (``--session-n``, smaller than the main fault size because each side
  runs several calls).  Coverage numbers must be identical, the serial
  Session may cost at most ``--max-session-overhead`` (ratio, e.g. 1.05 =
  5 %) over direct calls, and the multi-worker Session's persistent pool
  + owned arena must beat the per-call-pool direct path by
  ``--min-reuse-speedup`` across repeated calls (fourth CI gate).  The
  same serial loop is re-run with span capture disabled
  (:func:`repro.observe.set_observation_enabled`); the instrumented /
  uninstrumented ratio must stay under
  ``--max-instrumentation-overhead`` (default 1.02 — the span layer may
  cost at most 2 %, the ``instrumentation_overhead`` gate).

All timings are measured through :mod:`repro.observe` spans, and each
workload records its measurement span tree in the JSON report under
``workloads.<name>.trace``.  Speedup gates take the best of
``--repeats`` runs per side (``_best_of``).  The two overhead gates
compare sides within a few percent, which is below the drift between a
run of A and a later run of B: they time :data:`OVERHEAD_PAIRS`
interleaved A/B pairs (the order alternating from pair to pair) with the
garbage collector off inside each timed region (``_interleaved_ratio``),
gate on the median of the per-pair ratios and record its interquartile
range (``session_reuse.*_iqr`` and the gate entries' ``iqr``).  The
best-of timings of the three serial sides stay in
``session_reuse.seconds`` for reference.

Every quality gate is recorded in the JSON report under ``gates`` with its
required floor/ceiling, the measured value and a status: ``passed``,
``failed``, ``disabled`` (floor set to 0) or ``skipped``.  The report also
records the host capability (``host.cpu_count``); on a single-CPU machine
the multi-worker speedup gates (``sharded_speedup``,
``pool_reuse_speedup``) are physically impossible to pass and are marked
``skipped`` rather than failed, with the host reason recorded inline in
the gate entry (``reason``) — ``passed`` reflects only gates the host
could actually run.

Usage::

    PYTHONPATH=src python benchmarks/parallel_smoke.py \
        --out BENCH_parallel.json [--stream-n 24] [--fault-n 18] \
        [--workers 4] [--repeats 3] [--min-speedup 2] \
        [--min-prune-speedup 1.3] [--min-arena-speedup 1.15] [--alloc-n 14] \
        [--session-n 12] [--max-session-overhead 1.05] [--min-reuse-speedup 1.05] \
        [--incremental-n 16] [--min-incremental-speedup 2] [--diagnosis-n 7]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tracemalloc

import numpy as np

from repro.constructions import batcher_sorting_network
from repro.core.evaluation import all_binary_words_array, unsorted_binary_words_array
from repro.core.scratch import PlaneArena
from repro.faults import (
    CubeVectors,
    SimulationStats,
    enumerate_single_faults,
    fault_detection_any,
    fault_detection_matrix,
)
from repro.observe import Trace, set_observation_enabled
from repro.parallel import DEFAULT_CHUNK_WORDS, ExecutionConfig
from repro.properties import is_sorter


def _best_of(repeats: int, thunk, trace: Trace, label: str) -> float:
    """Best-of-*repeats* wall-clock of *thunk*, measured through spans.

    Each repeat runs under a child span of one *label* root span in
    *trace*, so the JSON report records the measurement structure itself
    as a span tree (``workloads.<name>.trace``).
    """
    best = float("inf")
    with trace.span(label, repeats=repeats):
        for _ in range(repeats):
            with trace.span("repeat") as rep:
                thunk()
            best = min(best, rep.seconds)
    return best


#: Interleaved A/B pairs behind each overhead gate (session and
#: instrumentation), one coverage call per side.  On a shared 2-CPU host
#: the per-pair ratio has an interquartile range of about ±3 %, which
#: puts the standard error of the median of 45 pairs under 1 %.
OVERHEAD_PAIRS = 45


def _unobserved(thunk):
    """*thunk* with span capture off while it runs.

    The measuring span around a call is opened while capture is on (a
    live span keeps reading the clock regardless of the global switch);
    any trace *thunk* builds hands out inert spans — this prices the
    instrumentation itself.
    """

    def call():
        previous = set_observation_enabled(False)
        try:
            return thunk()
        finally:
            set_observation_enabled(previous)

    return call


def _timed_once(thunk, trace: Trace, label: str) -> float:
    """Wall-clock of one *thunk* call, GC off inside the timed region.

    Garbage from earlier calls is collected first, so neither side of a
    pair pays for the other's.
    """
    gc.collect()
    with trace.span(label) as rep:
        gc.disable()
        try:
            thunk()
        finally:
            gc.enable()
    return rep.seconds


def _interleaved_ratio(pairs: int, a, b, trace: Trace, label: str) -> dict:
    """Median and IQR of the wall-clock ratio A / B over interleaved pairs.

    *a* and *b* are ``(name, thunk)`` sides.  Each pair times one call
    of each side back to back — A first in even pairs, B first in odd
    ones — so slow drift and order effects hit both sides alike.

    Returns
    -------
    dict
        ``ratio`` (the median per-pair ratio, which the gate judges),
        ``iqr`` (its 25th and 75th percentiles), ``pairs`` and the
        median seconds of each side under its name.
    """
    times: dict[str, list[float]] = {a[0]: [], b[0]: []}
    ratios = []
    with trace.span(label, pairs=pairs):
        for index in range(pairs):
            for name, thunk in (a, b) if index % 2 == 0 else (b, a):
                times[name].append(_timed_once(thunk, trace, name))
            ratios.append(times[a[0]][-1] / times[b[0]][-1])
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {
        "ratio": float(median),
        "iqr": [float(q1), float(q3)],
        "pairs": pairs,
        "seconds": {name: float(np.median(t)) for name, t in times.items()},
    }


def stream_workload(n: int, workers: int, chunk_size: int, repeats: int) -> dict:
    network = batcher_sorting_network(n)
    serial_cfg = ExecutionConfig(max_workers=1, chunk_size=chunk_size)
    parallel_cfg = ExecutionConfig(max_workers=workers, chunk_size=chunk_size)

    verdicts = {
        "single_shot": is_sorter(network, strategy="binary", engine="bitpacked"),
        "streamed_1_worker": is_sorter(
            network, strategy="binary", engine="bitpacked", config=serial_cfg
        ),
        f"streamed_{workers}_workers": is_sorter(
            network, strategy="binary", engine="bitpacked", config=parallel_cfg
        ),
    }
    if len(set(verdicts.values())) != 1:
        raise AssertionError(f"streamed verdicts disagree: {verdicts}")

    trace = Trace()
    seconds = {
        "single_shot": _best_of(
            repeats,
            lambda: is_sorter(network, strategy="binary", engine="bitpacked"),
            trace, "single_shot",
        ),
        "streamed_1_worker": _best_of(
            repeats,
            lambda: is_sorter(
                network, strategy="binary", engine="bitpacked", config=serial_cfg
            ),
            trace, "streamed_1_worker",
        ),
        f"streamed_{workers}_workers": _best_of(
            repeats,
            lambda: is_sorter(
                network,
                strategy="binary",
                engine="bitpacked",
                config=parallel_cfg,
            ),
            trace, f"streamed_{workers}_workers",
        ),
    }
    chunk_bytes = n * (chunk_size // 64) * 8
    return {
        "n": n,
        "device": f"batcher({n})",
        "words": 2**n,
        "chunk_size_words": chunk_size,
        "streamed_chunk_plane_bytes": chunk_bytes,
        "single_shot_plane_bytes": n * (2**n // 64) * 8,
        "verdict": verdicts["single_shot"],
        "seconds": seconds,
        "streamed_overhead_vs_single_shot": (
            seconds["streamed_1_worker"] / seconds["single_shot"]
        ),
        "parallel_speedup_over_1_worker": (
            seconds["streamed_1_worker"] / seconds[f"streamed_{workers}_workers"]
        ),
        "trace": trace.to_dict(),
    }


def fault_workload(n: int, workers: int, repeats: int) -> dict:
    device = batcher_sorting_network(n)
    faults = enumerate_single_faults(device, line_stuck_at_input_only=False)
    # The Theorem 2.2 test set as a vector array (same words as
    # sorting_binary_test_set, minus the Python-tuple materialisation).
    vectors = unsorted_binary_words_array(n)
    sharded_cfg = ExecutionConfig(max_workers=workers)

    serial_matrix = fault_detection_matrix(
        device, faults, vectors, engine="bitpacked"
    )
    sharded_matrix = fault_detection_matrix(
        device, faults, vectors, engine="bitpacked", config=sharded_cfg
    )
    if not np.array_equal(serial_matrix, sharded_matrix):
        raise AssertionError(
            "sharded fault-detection matrix differs from the single-process one"
        )
    del sharded_matrix

    trace = Trace()
    seconds = {
        "bitpacked_1_worker": _best_of(
            repeats,
            lambda: fault_detection_matrix(
                device, faults, vectors, engine="bitpacked"
            ),
            trace, "bitpacked_1_worker",
        ),
        f"bitpacked_{workers}_workers": _best_of(
            repeats,
            lambda: fault_detection_matrix(
                device, faults, vectors, engine="bitpacked", config=sharded_cfg
            ),
            trace, f"bitpacked_{workers}_workers",
        ),
    }
    return {
        "n": n,
        "device": f"batcher({n})",
        "faults": len(faults),
        "vectors": len(vectors),
        "matrices_identical": True,
        "seconds": seconds,
        "sharded_speedup_over_1_worker": (
            seconds["bitpacked_1_worker"] / seconds[f"bitpacked_{workers}_workers"]
        ),
        "trace": trace.to_dict(),
    }


def prune_workload(n: int, repeats: int, cross_check_n: int = 10) -> dict:
    """Dominated-state pruning on the streamed coverage path (module docstring)."""
    device = batcher_sorting_network(n)
    faults = enumerate_single_faults(device, line_stuck_at_input_only=False)
    vectors = unsorted_binary_words_array(n)
    config = ExecutionConfig(chunk_size=1 << 16)

    # Cross-check 1: streamed-cube matrix equals the explicit-cube matrix.
    small = batcher_sorting_network(cross_check_n)
    small_faults = enumerate_single_faults(small, line_stuck_at_input_only=False)
    explicit = fault_detection_matrix(
        small, small_faults, all_binary_words_array(cross_check_n),
        engine="bitpacked", prune=False,
    )
    streamed = fault_detection_matrix(
        small, small_faults, CubeVectors(cross_check_n), engine="bitpacked",
        config=ExecutionConfig(chunk_size=1 << 8),
    )
    if not np.array_equal(streamed, explicit):
        raise AssertionError(
            "streamed-cube detection matrix differs from the explicit cube"
        )

    # Cross-check 2: pruned and unpruned coverage verdicts are identical.
    unpruned = fault_detection_any(
        device, faults, vectors, engine="bitpacked", config=config, prune=False
    )
    stats = SimulationStats()
    pruned = fault_detection_any(
        device, faults, vectors, engine="bitpacked", config=config, prune=True,
        stats=stats,
    )
    if not np.array_equal(unpruned, pruned):
        raise AssertionError("pruned coverage verdicts differ from unpruned")

    trace = Trace()
    seconds = {
        "unpruned": _best_of(
            repeats,
            lambda: fault_detection_any(
                device, faults, vectors, engine="bitpacked", config=config,
                prune=False,
            ),
            trace, "unpruned",
        ),
        "pruned": _best_of(
            repeats,
            lambda: fault_detection_any(
                device, faults, vectors, engine="bitpacked", config=config,
                prune=True,
            ),
            trace, "pruned",
        ),
    }
    return {
        "n": n,
        "device": f"batcher({n})",
        "faults": len(faults),
        "vectors": int(vectors.shape[0]),
        "chunk_size_words": 1 << 16,
        "results_identical": True,
        "prune_ratio": round(stats.prune_ratio, 4),
        "converged_faults": stats.converged_faults,
        "dropped_faults": stats.dropped_faults,
        "seconds": seconds,
        "prune_speedup": seconds["unpruned"] / seconds["pruned"],
        "trace": trace.to_dict(),
    }


def _traced_peak_bytes(thunk) -> int:
    """Peak tracemalloc bytes allocated while *thunk* runs (warmed up once).

    numpy >= 1.22 reports array-data allocations through tracemalloc, so
    the per-stage plane churn of the allocating engine is visible here
    while the arena engine's pre-allocated pool is not (it is created
    before tracing starts).
    """
    thunk()  # warm caches (arena pool, writer tables, numpy internals)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        thunk()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def arena_workload(n: int, repeats: int, alloc_n: int) -> dict:
    """Arena-backed pruned engine vs the PR-3 allocating path (module docstring)."""
    device = batcher_sorting_network(n)
    faults = enumerate_single_faults(device, line_stuck_at_input_only=False)
    vectors = unsorted_binary_words_array(n)
    config = ExecutionConfig(chunk_size=1 << 16)

    # Cross-check: identical verdicts AND identical pruning counters.
    stats_arena = SimulationStats()
    stats_alloc = SimulationStats()
    arena_verdicts = fault_detection_any(
        device, faults, vectors, engine="bitpacked", config=config, prune=True,
        stats=stats_arena,
    )
    alloc_verdicts = fault_detection_any(
        device, faults, vectors, engine="bitpacked", config=config, prune=True,
        stats=stats_alloc, arena=False,
    )
    if not np.array_equal(arena_verdicts, alloc_verdicts):
        raise AssertionError("arena-backed verdicts differ from the allocating path")
    if stats_arena.counts() != stats_alloc.counts():
        raise AssertionError(
            "arena-backed pruning counters differ from the allocating path: "
            f"{stats_arena.counts()} vs {stats_alloc.counts()}"
        )

    trace = Trace()
    seconds = {
        "arena": _best_of(
            repeats,
            lambda: fault_detection_any(
                device, faults, vectors, engine="bitpacked", config=config,
                prune=True,
            ),
            trace, "arena",
        ),
        "alloc": _best_of(
            repeats,
            lambda: fault_detection_any(
                device, faults, vectors, engine="bitpacked", config=config,
                prune=True, arena=False,
            ),
            trace, "alloc",
        ),
    }

    # Allocation counter: tracemalloc peak of the pruned hot loop alone
    # (prefix states and output rows are built before tracing, so the peak
    # isolates the per-stage churn the arena removes).  Smaller n keeps the
    # traced run fast — tracemalloc slows allocation-heavy code sharply.
    from repro.faults.simulation import PrefixStates, _fault_rows, _pack_vectors

    small = batcher_sorting_network(alloc_n)
    small_faults = enumerate_single_faults(small, line_stuck_at_input_only=False)
    packed = _pack_vectors(small, unsorted_binary_words_array(alloc_n))
    prefix = PrefixStates.build(small, packed)
    rows = np.zeros((len(small_faults), packed.num_words), dtype=bool)
    arena = PlaneArena(small.n_lines, packed.n_blocks)
    peak_arena = _traced_peak_bytes(
        lambda: _fault_rows(
            small, small_faults, prefix, "specification", rows, prune=True,
            arena=arena,
        )
    )
    peak_alloc = _traced_peak_bytes(
        lambda: _fault_rows(
            small, small_faults, prefix, "specification", rows, prune=True,
            arena=False,
        )
    )
    return {
        "n": n,
        "device": f"batcher({n})",
        "faults": len(faults),
        "vectors": int(vectors.shape[0]),
        "chunk_size_words": 1 << 16,
        "results_identical": True,
        "stats_identical": True,
        "prune_ratio": round(stats_arena.prune_ratio, 4),
        "seconds": seconds,
        "arena_speedup": seconds["alloc"] / seconds["arena"],
        "alloc_probe_n": alloc_n,
        "alloc_peak_bytes": {"arena": peak_arena, "alloc": peak_alloc},
        "alloc_peak_reduction": (
            (peak_alloc / peak_arena) if peak_arena else float("inf")
        ),
        "trace": trace.to_dict(),
    }


def incremental_workload(
    n: int, repeats: int, candidates: int = 12, site_span: int = 8
) -> dict:
    """Mutate-one-comparator retest loop, warm vs cold cache (module docstring)."""
    from repro.api import Session
    from repro.core.network import Comparator, ComparatorNetwork

    incumbent = batcher_sorting_network(n)
    comps = list(incumbent.comparators)

    def mutated(index: int) -> ComparatorNetwork:
        out = list(comps)
        c = out[index]
        out[index] = Comparator(c.low, c.high, not c.reversed)
        return ComparatorNetwork(incumbent.n_lines, out)

    # Single-comparator mutants over the last *site_span* positions — the
    # shape of an adversary/minimal-search loop, where candidates share a
    # long comparator prefix with the incumbent.
    mutants = [
        mutated(len(comps) - 1 - (k % site_span)) for k in range(candidates)
    ]

    def retest_loop(session) -> list[bool]:
        verdicts = [session.verify(incumbent, "sorter", strategy="binary").verdict]
        for m in mutants:
            verdicts.append(session.verify(m, "sorter", strategy="binary").verdict)
            # Reject the mutant, re-verify the incumbent (memo hit warm).
            verdicts.append(
                session.verify(incumbent, "sorter", strategy="binary").verdict
            )
        return verdicts

    cold_session = Session(engine="bitpacked", cache=False)
    warm_session = Session(engine="bitpacked", cache=True)

    # Cross-check: warm verdicts are bit-identical to the cold run.
    cold_verdicts = retest_loop(cold_session)
    warm_verdicts = retest_loop(warm_session)
    if cold_verdicts != warm_verdicts:
        raise AssertionError(
            "warm-cache retest verdicts differ from the cold run: "
            f"{warm_verdicts} vs {cold_verdicts}"
        )

    def warm_from_empty():
        # Each measurement replays the whole loop against an empty store,
        # so the timing includes recording the incumbent's prefix — the
        # realistic first-iteration cost, not a pre-warmed best case.
        warm_session.cache.clear()
        retest_loop(warm_session)

    trace = Trace()
    seconds = {
        "cold": _best_of(
            repeats, lambda: retest_loop(cold_session), trace, "cold"
        ),
        "warm": _best_of(repeats, warm_from_empty, trace, "warm"),
    }
    warm_session.cache.clear()
    before = warm_session.cache.stats()
    retest_loop(warm_session)
    cache_stats = warm_session.cache.stats().delta(before)
    cold_session.close()
    warm_session.close()
    return {
        "n": n,
        "device": f"batcher({n})",
        "comparators": len(comps),
        "candidates": candidates,
        "mutation_site_span": site_span,
        "verifications_per_loop": 1 + 2 * candidates,
        "results_identical": True,
        "sorter_verdicts": sum(cold_verdicts),
        "seconds": seconds,
        "incremental_speedup": seconds["cold"] / seconds["warm"],
        "cache": {
            "hit_rate": round(cache_stats.hit_rate, 4),
            "verdict_hits": cache_stats.verdict_hits,
            "prefix_partial_hits": cache_stats.prefix_partial_hits,
            "reused_comparators": cache_stats.reused_comparators,
            "stored_bytes": cache_stats.stored_bytes,
        },
        "trace": trace.to_dict(),
    }


def diagnosis_workload(n: int, workers: int, repeats: int) -> dict:
    """Multi-fault dictionary build + diagnostic resolution (module docstring)."""
    from repro.api import Session
    from repro.faults import enumerate_model_faults
    from repro.faults.diagnosis import fault_dictionary_from_matrix

    device = batcher_sorting_network(n)
    # The registry's canonical MultiFault universe: conflict-free k=2
    # subsets of the comparator single faults, dominance-pruned on the
    # exhaustive cube (n <= 10 here, so the behavioural screen runs).
    universe = enumerate_model_faults(device, "MultiFault")
    vectors = unsorted_binary_words_array(n)

    serial = Session(engine="bitpacked")
    sharded = Session(engine="bitpacked", workers=max(2, workers))
    cached = Session(engine="bitpacked", cache=True)

    # Exact-result gate: the sharded pool and the verdict-memo cache must
    # reproduce the serial dictionary, resolution report and adaptive
    # order bit-for-bit — the diagnosis face of the bit-identity contract.
    baseline = serial.diagnose(device, universe, vectors)
    replays = {
        "sharded": sharded.diagnose(device, universe, vectors),
        "cache_fill": cached.diagnose(device, universe, vectors),
        "warm_cache": cached.diagnose(device, universe, vectors),
    }
    for name, result in replays.items():
        if (
            result.dictionary.signatures != baseline.dictionary.signatures
            or result.dictionary.classes != baseline.dictionary.classes
            or result.resolution != baseline.resolution
            or result.test_order != baseline.test_order
        ):
            raise AssertionError(
                f"{name} diagnosis differs from the serial run"
            )

    def build_dictionary(session) -> None:
        matrix = session.fault_matrix(device, universe, vectors).matrix
        fault_dictionary_from_matrix(universe, matrix)

    trace = Trace()
    seconds = {
        "dictionary_serial": _best_of(
            repeats, lambda: build_dictionary(serial),
            trace, "dictionary_serial",
        ),
        "dictionary_warm_cache": _best_of(
            repeats, lambda: build_dictionary(cached),
            trace, "dictionary_warm_cache",
        ),
    }
    resolution = baseline.resolution
    serial.close()
    sharded.close()
    cached.close()
    return {
        "n": n,
        "device": f"batcher({n})",
        "fault_model": "MultiFault",
        "faults": len(universe),
        "vectors": int(vectors.shape[0]),
        "results_identical": True,
        "seconds": seconds,
        # Full Session.diagnose wall-clock (matrix + dictionary +
        # resolution + greedy adaptive order) of the serial baseline.
        "diagnose_seconds": baseline.execution.seconds,
        "adaptive_order_length": len(baseline.test_order),
        "resolution": {
            "num_faults": resolution.num_faults,
            "num_classes": resolution.num_classes,
            "singleton_classes": resolution.singleton_classes,
            "max_class_size": resolution.max_class_size,
            "undetected_faults": resolution.undetected_faults,
            "resolution": round(resolution.resolution, 4),
            "fully_resolved": resolution.fully_resolved,
        },
        "trace": trace.to_dict(),
    }


def session_reuse_workload(n: int, workers: int, repeats: int, calls: int = 5) -> dict:
    """Session facade vs direct calls on repeated coverage runs (module docstring)."""
    import warnings

    from repro.api import Session
    from repro.faults import coverage_report

    # The pool-reuse comparison is about amortising worker-pool spawn cost,
    # so it needs an actual pool even on a single-core box (where the main
    # --workers resolution collapses to 1 and both sides would degenerate
    # to the serial path, measuring nothing).
    workers = max(2, workers)
    device = batcher_sorting_network(n)
    faults = enumerate_single_faults(device, line_stuck_at_input_only=False)
    vectors = unsorted_binary_words_array(n)
    sharded_cfg = ExecutionConfig(max_workers=workers)

    def direct_coverage(config=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            return coverage_report(
                device, faults, vectors, engine="bitpacked", config=config
            )

    # Cross-check: the facade's numbers are the legacy function's numbers.
    legacy = direct_coverage()
    serial_session = Session(engine="bitpacked")
    parallel_session = Session(engine="bitpacked", workers=workers)
    facade = serial_session.fault_coverage(device, faults, vectors)
    sharded = parallel_session.fault_coverage(device, faults, vectors)  # warms pool
    for name, report in (("serial", facade), ("sharded", sharded)):
        if (report.coverage, report.detected_faults, dict(report.by_kind)) != (
            legacy.coverage, legacy.detected_faults, dict(legacy.by_kind)
        ):
            raise AssertionError(
                f"Session {name} coverage differs from the legacy free function"
            )

    trace = Trace()

    def session_call():
        serial_session.fault_coverage(device, faults, vectors)

    # The three serial sides; the session's per-call Trace hands out inert
    # spans on the unobserved one.
    direct_side = ("direct_serial", direct_coverage)
    session_side = ("session_serial", session_call)
    unobserved_side = ("session_serial_no_observation", _unobserved(session_call))

    # Best of ``repeats`` loops of ``calls`` calls per serial side, for the
    # report only (the overhead gates judge the interleaved pairs below).
    # They also run ahead of the pool-reuse timing so that it follows the
    # same serial work as it always has: an idle persistent pool measured
    # slower behind a longer stretch of serial calls (ROADMAP item 1).
    seconds = {
        name: _best_of(
            repeats, lambda thunk=thunk: [thunk() for _ in range(calls)],
            trace, name,
        )
        for name, thunk in (direct_side, session_side, unobserved_side)
    }
    seconds |= {
        # Direct sharded calls spawn (and tear down) a worker pool per
        # call; the Session submits every call to its one persistent pool.
        "direct_sharded_pool_per_call": _best_of(
            repeats, lambda: [direct_coverage(sharded_cfg) for _ in range(calls)],
            trace, "direct_sharded_pool_per_call",
        ),
        "session_sharded_persistent_pool": _best_of(
            repeats,
            lambda: [
                parallel_session.fault_coverage(device, faults, vectors)
                for _ in range(calls)
            ],
            trace, "session_sharded_persistent_pool",
        ),
    }

    # One coverage call per side of a pair: many short pairs give a
    # steadier median than a few long ones on a shared host.
    overhead = _interleaved_ratio(
        OVERHEAD_PAIRS, session_side, direct_side, trace, "session_overhead"
    )
    # The identical session call with span capture disabled prices the
    # instrumentation layer itself (the instrumentation_overhead gate).
    instrumentation = _interleaved_ratio(
        OVERHEAD_PAIRS,
        session_side,
        unobserved_side,
        trace,
        "instrumentation_overhead",
    )
    serial_session.close()
    parallel_session.close()
    return {
        "n": n,
        "device": f"batcher({n})",
        "faults": len(faults),
        "vectors": int(vectors.shape[0]),
        "workers": workers,
        "calls_per_measurement": calls,
        "results_identical": True,
        "seconds": seconds,
        # Median ratio, IQR, pair count and per-side median seconds of
        # one call for each overhead gate.
        "session_overhead_pairs": overhead,
        "instrumentation_overhead_pairs": instrumentation,
        "session_overhead_vs_direct": overhead["ratio"],
        "session_overhead_iqr": overhead["iqr"],
        "pool_reuse_speedup": (
            seconds["direct_sharded_pool_per_call"]
            / seconds["session_sharded_persistent_pool"]
        ),
        "instrumentation_overhead": instrumentation["ratio"],
        "instrumentation_overhead_iqr": instrumentation["iqr"],
        "trace": trace.to_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--stream-n", type=int, default=24, help="streamed exhaustive size"
    )
    parser.add_argument(
        "--fault-n", type=int, default=18, help="sharded fault-simulation size"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = one per CPU)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_WORDS,
        help="streamed chunk size in words",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required sharded fault-sim speedup over 1 worker (0 disables)",
    )
    parser.add_argument(
        "--min-prune-speedup",
        type=float,
        default=1.3,
        help="required dominated-state-pruning speedup on the streamed "
        "coverage path (0 disables)",
    )
    parser.add_argument(
        "--min-arena-speedup",
        type=float,
        default=1.15,
        help="required scratch-arena speedup over the PR-3 allocating "
        "pruned engine (0 disables)",
    )
    parser.add_argument(
        "--alloc-n",
        type=int,
        default=14,
        help="device size for the tracemalloc allocation probe "
        "(tracemalloc slows the traced run; keep this modest)",
    )
    parser.add_argument(
        "--session-n",
        type=int,
        default=12,
        help="device size for the session-reuse workload (each side runs "
        "several repeated coverage calls; modest on purpose — the pool "
        "spawn cost being amortised must stay visible next to the compute)",
    )
    parser.add_argument(
        "--max-session-overhead",
        type=float,
        default=1.05,
        help="allowed serial Session/direct wall-clock ratio on repeated "
        "coverage calls (1.05 = 5%% facade overhead; 0 disables)",
    )
    parser.add_argument(
        "--max-instrumentation-overhead",
        type=float,
        default=1.02,
        help="allowed ratio of the span-instrumented serial session loop "
        "over the same loop with observation disabled (1.02 = 2%% "
        "instrumentation cost; 0 disables)",
    )
    parser.add_argument(
        "--min-reuse-speedup",
        type=float,
        default=1.05,
        help="required speedup of the Session's persistent pool over "
        "per-call pools on repeated sharded coverage calls (0 disables)",
    )
    parser.add_argument(
        "--incremental-n",
        type=int,
        default=16,
        help="device size for the incremental re-verification workload "
        "(the mutate-one-comparator retest loop)",
    )
    parser.add_argument(
        "--min-incremental-speedup",
        type=float,
        default=2.0,
        help="required warm-cache speedup on the mutate-one-comparator "
        "retest loop (0 disables)",
    )
    parser.add_argument(
        "--diagnosis-n",
        type=int,
        default=7,
        help="device size for the multi-fault diagnosis workload (the "
        "pruned k=2 MultiFault universe grows quadratically in the "
        "comparator count and the adaptive-order greedy is "
        "class-count-bound; keep this modest)",
    )
    parser.add_argument("--out", default="BENCH_parallel.json")
    args = parser.parse_args(argv)

    workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)
    report = {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "workloads": {
            "streamed_exhaustive_is_sorter": stream_workload(
                args.stream_n, workers, args.chunk_size, args.repeats
            ),
            "sharded_fault_simulation": fault_workload(
                args.fault_n, workers, args.repeats
            ),
            "pruned_fault_simulation": prune_workload(
                args.fault_n, args.repeats
            ),
            "arena_scratch_planes": arena_workload(
                args.fault_n, args.repeats, args.alloc_n
            ),
            "session_reuse": session_reuse_workload(
                args.session_n, workers, args.repeats
            ),
            "incremental_reverify": incremental_workload(
                args.incremental_n, args.repeats
            ),
            "multi_fault_diagnosis": diagnosis_workload(
                args.diagnosis_n, workers, args.repeats
            ),
        },
        "results_identical": True,
    }
    speedup = report["workloads"]["sharded_fault_simulation"][
        "sharded_speedup_over_1_worker"
    ]
    prune_speedup = report["workloads"]["pruned_fault_simulation"][
        "prune_speedup"
    ]
    arena = report["workloads"]["arena_scratch_planes"]
    arena_speedup = arena["arena_speedup"]
    alloc_peaks = arena["alloc_peak_bytes"]
    session = report["workloads"]["session_reuse"]
    session_overhead = session["session_overhead_vs_direct"]
    reuse_speedup = session["pool_reuse_speedup"]
    instrumentation_overhead = session["instrumentation_overhead"]
    incremental = report["workloads"]["incremental_reverify"]
    incremental_speedup = incremental["incremental_speedup"]
    diagnosis = report["workloads"]["multi_fault_diagnosis"]

    # Host capability: a 1-CPU runner cannot physically beat the serial
    # path with worker processes, so the multi-worker speedup gates are
    # recorded as "skipped" (informational, not failures) there.  The
    # serial gates (pruning, arena, allocation, facade overhead) always
    # run — single-core machines exercise them just as well.
    cpu_count = os.cpu_count() or 1
    multiworker_capable = cpu_count >= 2
    report["host"] = {
        "cpu_count": cpu_count,
        "workers_resolved": workers,
        "multiworker_capable": multiworker_capable,
    }

    def gate(
        required: float,
        measured: float,
        ok: bool,
        *,
        disabled: bool = False,
        needs_multiworker: bool = False,
        iqr: list[float] | None = None,
    ) -> dict:
        entry = {"required": required, "measured": measured}
        if iqr is not None:
            entry["iqr"] = iqr
        if disabled:
            entry["status"] = "disabled"
            entry["reason"] = "threshold set to 0 on the command line"
        elif needs_multiworker and not multiworker_capable:
            entry["status"] = "skipped"
            entry["reason"] = (
                f"host has {cpu_count} CPU(s); a multi-worker speedup "
                "over the serial path is physically impossible here"
            )
        else:
            entry["status"] = "passed" if ok else "failed"
        return entry

    gates = {
        "sharded_speedup": gate(
            args.min_speedup, speedup, speedup >= args.min_speedup,
            disabled=args.min_speedup <= 0, needs_multiworker=True,
        ),
        "prune_speedup": gate(
            args.min_prune_speedup, prune_speedup,
            prune_speedup >= args.min_prune_speedup,
            disabled=args.min_prune_speedup <= 0,
        ),
        "arena_speedup": gate(
            args.min_arena_speedup, arena_speedup,
            arena_speedup >= args.min_arena_speedup,
            disabled=args.min_arena_speedup <= 0,
        ),
        "arena_alloc_peak": gate(
            alloc_peaks["alloc"], alloc_peaks["arena"],
            alloc_peaks["arena"] <= alloc_peaks["alloc"],
        ),
        "session_overhead": gate(
            args.max_session_overhead, session_overhead,
            session_overhead <= args.max_session_overhead,
            disabled=args.max_session_overhead <= 0,
            iqr=session["session_overhead_iqr"],
        ),
        "pool_reuse_speedup": gate(
            args.min_reuse_speedup, reuse_speedup,
            reuse_speedup >= args.min_reuse_speedup,
            disabled=args.min_reuse_speedup <= 0, needs_multiworker=True,
        ),
        "instrumentation_overhead": gate(
            args.max_instrumentation_overhead, instrumentation_overhead,
            instrumentation_overhead <= args.max_instrumentation_overhead,
            disabled=args.max_instrumentation_overhead <= 0,
            iqr=session["instrumentation_overhead_iqr"],
        ),
        "incremental_reverify_speedup": gate(
            args.min_incremental_speedup, incremental_speedup,
            incremental_speedup >= args.min_incremental_speedup,
            disabled=args.min_incremental_speedup <= 0,
        ),
        # Flag-less exactness gate (like arena_alloc_peak): the workload
        # raises before timing on any divergence, so reaching this point
        # means the sharded and warm-cache diagnoses matched the serial
        # dictionary bit-for-bit — recorded here so the report says so.
        "multi_fault_diagnosis_exact": gate(
            1.0,
            1.0 if diagnosis["results_identical"] else 0.0,
            bool(diagnosis["results_identical"]),
        ),
    }
    report["gates"] = gates
    failed = [name for name, g in gates.items() if g["status"] == "failed"]
    skipped = [name for name, g in gates.items() if g["status"] == "skipped"]
    report["passed"] = not failed
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))
    for name in failed:
        print(
            f"FAIL: gate {name}: measured {gates[name]['measured']:.3f} "
            f"against required {gates[name]['required']:.3f}",
            file=sys.stderr,
        )
    if failed:
        return 1
    if skipped:
        print(
            f"SKIPPED (host has {cpu_count} CPU(s), cannot pass "
            f"multi-worker gates): {', '.join(skipped)}",
            file=sys.stderr,
        )
    print(
        f"OK: fault-sim n={args.fault_n} sharded speedup {speedup:.2f}x with "
        f"{workers} workers (floor {args.min_speedup:.1f}x), pruning speedup "
        f"{prune_speedup:.2f}x (floor {args.min_prune_speedup:.1f}x), "
        f"arena speedup {arena_speedup:.2f}x (floor "
        f"{args.min_arena_speedup:.2f}x, peak alloc "
        f"{alloc_peaks['arena']} B vs {alloc_peaks['alloc']} B), "
        f"session overhead {session_overhead:.3f}x (ceiling "
        f"{args.max_session_overhead:.2f}x), instrumentation overhead "
        f"{instrumentation_overhead:.3f}x (ceiling "
        f"{args.max_instrumentation_overhead:.2f}x), pool-reuse speedup "
        f"{reuse_speedup:.2f}x (floor {args.min_reuse_speedup:.2f}x), "
        f"incremental re-verify speedup {incremental_speedup:.2f}x (floor "
        f"{args.min_incremental_speedup:.2f}x, cache hit rate "
        f"{incremental['cache']['hit_rate']:.2f}), multi-fault diagnosis "
        f"n={args.diagnosis_n} exact across serial/sharded/warm-cache "
        f"({diagnosis['faults']} composites, resolution "
        f"{diagnosis['resolution']['resolution']:.3f}, dictionary "
        f"{diagnosis['seconds']['dictionary_serial']:.3f}s serial)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
