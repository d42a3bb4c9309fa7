"""Streamed (constant-memory) and sharded execution of exhaustive checks.

Two work shapes live here:

* **Cube streaming** — exhaustive 0/1 verification over the ``2**n`` cube
  is evaluated in fixed-size block ranges generated directly in packed form
  (:func:`repro.core.bitpacked.packed_cube_range`), so the full
  ``packed_all_binary_words(n)`` batch is never materialised and
  verification at ``n >= 28`` runs under a constant memory ceiling.  With
  ``max_workers > 1`` the block ranges shard across a
  :class:`concurrent.futures.ProcessPoolExecutor`; each worker regenerates
  its own range from ``(n, block_start, block_stop)`` alone, so no input
  data crosses the process boundary at all.
* **Word-chunk streaming** — explicit word collections (test sets, merge
  inputs) are evaluated chunk by chunk, optionally across processes.

All results are bit-identical to the single-shot engines: chunks are
scanned in rank order and the first failing rank wins deterministically,
parallel or not.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..core.bitpacked import (
    BLOCK_BITS,
    apply_network_packed,
    packed_cube_range,
    packed_first_rank,
    packed_selection_violation_blocks,
    rank_to_word,
)
from ..core.network import ComparatorNetwork
from ..core.scratch import shared_arena
from ..exceptions import InputLengthError
from .chunking import chunk_spans, cube_block_spans
from .config import ExecutionConfig, resolve_config


def _cube_spans(n: int, config: ExecutionConfig):
    """Cube block spans sized for this configuration.

    An explicit ``chunk_size`` wins.  Otherwise a parallel run sizes chunks
    so every worker gets a few spans (~4 per worker, the same load-balance
    target as :func:`repro.parallel.chunking.shard_spans`) — without this, a
    cube smaller than the default chunk would collapse to one span and run
    serially no matter how many workers were requested.
    """
    chunk_words = config.chunk_words()
    if config.chunk_size is None and config.parallel:
        target_chunks = config.resolved_workers() * 4
        fair_share = -(-(1 << n) // target_chunks)
        chunk_words = max(BLOCK_BITS, min(chunk_words, fair_share))
    return cube_block_spans(n, chunk_words)

__all__ = [
    "streamed_sorting_failure_rank",
    "streamed_is_sorter",
    "streamed_selection_failure_rank",
    "streamed_is_selector",
    "chunked_words_all_sorted",
    "rank_to_word",
]


def _sorting_chunk_failure(
    network: ComparatorNetwork,
    restrict_to_unsorted_inputs: bool,
    span: tuple[int, int],
) -> int | None:
    """First rank in the block span the network fails to sort, or ``None``.

    The single-shot checker's sweep on the span's block range, which the
    worker regenerates from the span alone; its worker-local arena keeps
    the check free of per-stage allocations across every span.
    """
    from ..properties.sorter import _sorting_failure_rank

    start, stop = span
    return _sorting_failure_rank(
        network,
        packed_cube_range(network.n_lines, start, stop),
        block_start=start,
        restrict_to_unsorted_inputs=restrict_to_unsorted_inputs,
    )


def _selection_chunk_failure(
    network: ComparatorNetwork,
    k: int,
    restrict_to_test_words: bool,
    span: tuple[int, int],
) -> int | None:
    """First rank in the block span mis-selected by the network, or ``None``."""
    start, stop = span
    inputs = packed_cube_range(network.n_lines, start, stop)
    # Worker-local arena: comparator scratch plus the counter planes and
    # violation mask of the packed selection check, all pool rows.
    arena = shared_arena(inputs.n_lines, inputs.n_blocks, inputs.planes.dtype)
    outputs = apply_network_packed(network, inputs, copy=True, scratch=arena.tmp)
    s_violation = arena.acquire()
    try:
        violation = packed_selection_violation_blocks(
            inputs,
            outputs,
            k,
            restrict_to_test_words=restrict_to_test_words,
            arena=arena,
            out=arena.plane(s_violation),
        )
        return packed_first_rank(violation, start)
    finally:
        arena.release(s_violation)


def _harvest_first(futures):
    """First non-``None`` result in submission order, cancelling the rest."""
    failure = None
    for future in futures:
        result = future.result()
        if result is not None:
            failure = result
            break
    if failure is not None:
        for future in futures:
            future.cancel()
    return failure


def _scan_spans(task, spans: Sequence[tuple[int, int]], config: ExecutionConfig):
    """Run ``task(span)`` over all spans, returning the first non-``None``.

    Serial configurations iterate in place; parallel ones submit every span
    and harvest results in submission (= rank) order, cancelling the rest as
    soon as a failure is known, so the answer is deterministic either way.
    A persistent :attr:`ExecutionConfig.pool` is reused (workers survive the
    call); otherwise an ephemeral pool is created and torn down.
    """
    if not config.parallel or len(spans) <= 1:
        for span in spans:
            result = task(span)
            if result is not None:
                return result
        return None
    if config.pool is not None:
        shared = config.pool.executor()
        return _harvest_first([shared.submit(task, span) for span in spans])
    workers = min(config.resolved_workers(), len(spans))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _harvest_first([pool.submit(task, span) for span in spans])


class _SpanTask:
    """Picklable ``span -> result`` closure over a chunk function."""

    def __init__(self, fn, *args) -> None:
        self._fn = fn
        self._args = args

    def __call__(self, span: tuple[int, int]):
        return self._fn(*self._args, span)


def streamed_sorting_failure_rank(
    network: ComparatorNetwork,
    *,
    restrict_to_unsorted_inputs: bool = False,
    config: ExecutionConfig | None = None,
) -> int | None:
    """Rank of the first cube word the network fails to sort, or ``None``.

    Parameters
    ----------
    network : ComparatorNetwork
        The device under verification.
    restrict_to_unsorted_inputs : bool, optional
        When ``True`` only non-sorted inputs (the paper's Theorem 2.2 test
        set) are eligible, matching the ``strategy="testset"`` verdict for
        standard networks.
    config : ExecutionConfig, optional
        Chunk size and worker count; ``None`` streams serially with the
        default chunk.

    Returns
    -------
    int or None
        The smallest failing input rank (deterministic, parallel or not),
        or ``None`` when the network sorts every eligible word.
    """
    cfg = resolve_config(config)
    spans = _cube_spans(network.n_lines, cfg)
    task = _SpanTask(_sorting_chunk_failure, network, restrict_to_unsorted_inputs)
    return _scan_spans(task, spans, cfg)


def streamed_is_sorter(
    network: ComparatorNetwork,
    *,
    restrict_to_unsorted_inputs: bool = False,
    config: ExecutionConfig | None = None,
) -> bool:
    """Streamed exhaustive sortedness verification (see the module docstring)."""
    return (
        streamed_sorting_failure_rank(
            network,
            restrict_to_unsorted_inputs=restrict_to_unsorted_inputs,
            config=config,
        )
        is None
    )


def streamed_selection_failure_rank(
    network: ComparatorNetwork,
    k: int,
    *,
    restrict_to_test_words: bool = False,
    config: ExecutionConfig | None = None,
) -> int | None:
    """Rank of the first cube word mis-``(k, n)``-selected, or ``None``.

    Parameters
    ----------
    network : ComparatorNetwork
        The device under verification.
    k : int
        Selection order: the smallest ``k`` values must land on the first
        ``k`` output lines.
    restrict_to_test_words : bool, optional
        When ``True`` only words of the paper's ``T_k^n`` (unsorted, at
        most ``k`` zeroes) are eligible.
    config : ExecutionConfig, optional
        Chunk size and worker count.

    Returns
    -------
    int or None
        The smallest failing input rank, or ``None`` if none fails.
    """
    cfg = resolve_config(config)
    spans = _cube_spans(network.n_lines, cfg)
    task = _SpanTask(_selection_chunk_failure, network, k, restrict_to_test_words)
    return _scan_spans(task, spans, cfg)


def streamed_is_selector(
    network: ComparatorNetwork,
    k: int,
    *,
    restrict_to_test_words: bool = False,
    config: ExecutionConfig | None = None,
) -> bool:
    """Streamed exhaustive ``(k, n)``-selection verification."""
    return (
        streamed_selection_failure_rank(
            network, k, restrict_to_test_words=restrict_to_test_words, config=config
        )
        is None
    )


def _words_chunk_all_sorted(
    network: ComparatorNetwork, engine: str, batch: np.ndarray
) -> bool:
    """Does the network sort every word of this (already normalised) chunk?"""
    from ..core.evaluation import apply_network_to_batch, batch_is_sorted

    outputs = apply_network_to_batch(network, batch, copy=True, engine=engine)
    return bool(np.all(batch_is_sorted(outputs)))


def chunked_words_all_sorted(
    network: ComparatorNetwork,
    words,
    *,
    engine: str = "vectorized",
    config: ExecutionConfig | None = None,
) -> bool:
    """Chunked / sharded "every output is sorted" over an explicit word list.

    The chunked backend of :func:`repro.testsets.validation.network_passes_test_set`
    and the merger/strategy checks: the words are normalised to a single
    integer array once (a 2-D ndarray input is used as-is — no per-element
    Python work at all), then evaluated and judged chunk by chunk, so peak
    *evaluation* memory follows the chunk size and chunks shard across
    processes when ``max_workers > 1``.
    """
    from ..core.evaluation import words_to_array

    cfg = resolve_config(config)
    if isinstance(words, np.ndarray):
        if words.ndim != 2:
            raise InputLengthError(
                f"word arrays must be 2-D (num_words, n_lines), got shape "
                f"{words.shape}"
            )
        batch = words
    else:
        batch = words_to_array(
            list(words), dtype=np.int64, n_lines=network.n_lines
        )
    if batch.shape[0] == 0:
        return True
    from ..core.evaluation import narrow_binary_batch

    batch, engine = narrow_binary_batch(batch, engine)
    total = batch.shape[0]
    chunk = cfg.chunk_words()
    if cfg.chunk_size is None and cfg.parallel:
        # Same fair-share sizing as _cube_spans: without it a word list
        # smaller than the default chunk collapses to one span and the
        # requested workers silently do nothing.
        chunk = max(1, min(chunk, -(-total // (cfg.resolved_workers() * 4))))
    spans = list(chunk_spans(total, chunk))
    if not cfg.parallel or len(spans) <= 1:
        return all(
            _words_chunk_all_sorted(network, engine, batch[start:stop])
            for start, stop in spans
        )

    def _harvest_all_sorted(executor) -> bool:
        futures = [
            executor.submit(
                _words_chunk_all_sorted, network, engine, batch[start:stop]
            )
            for start, stop in spans
        ]
        verdict = True
        for future in futures:
            if not future.result():
                verdict = False
                break
        if not verdict:
            for future in futures:
                future.cancel()
        return verdict

    if cfg.pool is not None:
        return _harvest_all_sorted(cfg.pool.executor())
    workers = min(cfg.resolved_workers(), len(spans))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _harvest_all_sorted(pool)
