"""Deciding whether a network is a sorting network.

Four strategies are provided, matching the paper's discussion of how the
test-set size governs verification cost:

``binary``
    Exhaustive over all ``2**n`` binary words (zero–one principle).
``permutation``
    Exhaustive over all ``n!`` permutations.
``testset``
    Evaluate only the minimum 0/1 test set (the ``2**n - n - 1`` unsorted
    words of Theorem 2.2 (i)); sorted inputs can never be unsorted by a
    standard network so they carry no information.
``permutation-testset``
    Evaluate only the ``C(n, floor(n/2)) - 1`` cover permutations of
    Theorem 2.2 (ii).

All strategies agree for standard networks; the exhaustive ones remain
correct for non-standard networks as well (the test-set strategies assume
the standard model, exactly as the paper does).

The strategy picks the engine (:func:`repro.core.evaluation.route_engine`):
:func:`is_sorter` and an unpinned :class:`repro.api.Session` run the 0/1
strategies bit-packed and the permutation strategies vectorised; a
Session's ``engine`` pins another engine (a bit-packed pin refuses the
permutation strategies).  :func:`find_sorting_counterexample` is the
``testset`` strategy's packed sweep.  The bit-packed engine runs both 0/1
strategies on the input cube generated directly in packed form: ``binary`` judges
every cube word, ``testset`` judges the same sweep's outputs with the
``n + 1`` sorted inputs masked out at their closed-form ranks
(:func:`repro.core.bitpacked.packed_clear_sorted_cube_words`), so the
Theorem 2.2 words are never materialised and non-standard networks keep
their ``testset`` verdict.  The ``scalar`` and ``vectorized`` engines
evaluate the materialised test set — they are the oracle the packed mask
is checked against.

An execution configuration (:class:`repro.parallel.ExecutionConfig`,
from a Session's ``workers`` / ``chunk_size``) streams the 0/1 strategies through the bit-packed engine in fixed-size block ranges —
constant memory at any ``n`` — and shards the ranges across processes when
``max_workers > 1``; verdicts are identical to the single-shot path.  With
a result cache (:class:`repro.cache.ResultCache`, the Session backend) the
single-shot bit-packed ``binary`` and ``testset`` checks share the cached
cube and its prefix donors (:func:`repro.cache.cached_cube_sorted`), each
strategy under its own verdict key.  By the zero-one principle one
unsorted output refutes a sorter, so that cached sweep stops early: it
judges the cube in the chunks of
:func:`repro.core.bitpacked.early_exit_spans` (the first sixteenth of the
blocks but at least 64, then the rest) and stops after the first chunk
with an unsorted judged output.  The uncached single-shot sweep judges the
whole cube in one pass.  The fault-model networks of
:mod:`repro.faults.models`, which override their evaluation, skip the
cache (:func:`repro.cache.cacheable_network`).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from .._typing import BinaryWord, WordLike
from ..core.bitpacked import (
    apply_network_packed,
    pack_batch,
    packed_all_binary_words,
    packed_clear_sorted_cube_words,
    packed_first_rank,
    packed_is_sorted,
    packed_unsorted_blocks,
    rank_to_word,
)
from ..core.scratch import allocation_free, shared_arena
from ..core.evaluation import (
    BINARY_STRATEGIES,
    all_binary_words_array,
    apply_network_to_batch,
    batch_is_sorted,
    outputs_on_words,
    route_engine,
    route_words,
    unsorted_binary_words_array,
)
from ..core.network import ComparatorNetwork
from ..exceptions import TestSetError
from ..words.permutations import all_permutations

if TYPE_CHECKING:
    from ..parallel.config import ExecutionConfig

__all__ = [
    "is_sorter",
    "find_sorting_counterexample",
    "SORTER_STRATEGIES",
]

SORTER_STRATEGIES = ("binary", "permutation", "testset", "permutation-testset")


@allocation_free
def _sorting_violations_arena(outputs, arena, out):
    """Arena-disciplined violation mask of the sorter property checker.

    The single seam through which the property layer judges packed sorter
    outputs: the per-block unsorted-word mask lands in *out* (a
    caller-acquired arena row) with scratch and pad rows drawn from
    *arena*, so the steady-state check is allocation-free — enforced at
    runtime by the ``assert_allocation_free`` scenario in
    ``tests/test_devtools_sanitize.py``.  Returns ``True`` when every word
    of *outputs* is sorted.
    """
    scratch = arena.acquire()
    try:
        mask = packed_unsorted_blocks(
            outputs,
            out=out,
            scratch=arena.plane(scratch),
            pad=arena.pad_row(outputs.num_words),
        )
        return not bool(mask.any())
    finally:
        arena.release(scratch)


def _sorting_failure_rank(
    network: ComparatorNetwork,
    packed,
    *,
    block_start: int = 0,
    restrict_to_unsorted_inputs: bool = False,
) -> int | None:
    """Rank of the first cube word *network* fails to sort, or ``None``.

    The uncached bit-packed sweep of both 0/1 strategies: *packed* is the
    whole cube (:func:`packed_all_binary_words`, single-shot) or the block
    range starting at cube block *block_start* (one streamed chunk, see
    :mod:`repro.parallel.executor`).  The network runs through
    :func:`apply_network_packed`, so fault-model overrides apply, and the
    violation mask lands in an arena row.  With
    *restrict_to_unsorted_inputs* (the ``testset`` strategy) the bits of
    the ``n + 1`` sorted inputs are cleared, leaving Theorem 2.2 (i)'s
    test words.
    """
    arena = shared_arena(packed.n_lines, packed.n_blocks, packed.planes.dtype)
    outputs = apply_network_packed(network, packed, copy=False, scratch=arena.tmp)
    slot = arena.acquire()
    try:
        row = arena.plane(slot)
        if _sorting_violations_arena(outputs, arena, row):
            return None
        if restrict_to_unsorted_inputs:
            packed_clear_sorted_cube_words(
                row, packed.n_lines, block_start=block_start
            )
        return packed_first_rank(row, block_start)
    finally:
        arena.release(slot)


def _outputs_all_sorted(
    network: ComparatorNetwork, batch: np.ndarray, *, engine: str = "vectorized"
) -> bool:
    outputs = apply_network_to_batch(network, batch, copy=False, engine=engine)
    return bool(np.all(batch_is_sorted(outputs)))


def is_sorter(
    network: ComparatorNetwork,
    *,
    strategy: str = "testset",
) -> bool:
    """Decide whether *network* sorts every input.

    Parameters
    ----------
    network:
        The network under test.
    strategy:
        One of :data:`SORTER_STRATEGIES`; see the module docstring.  The
        default uses the paper's minimum 0/1 test set, which is both correct
        and the cheapest of the exhaustive-style strategies.

    :meth:`repro.api.Session.verify` gives the same verdict on a configured
    engine, worker pool and chunk size, inside a typed result.
    """
    return _is_sorter_impl(network, strategy=strategy)


def _is_sorter_impl(
    network: ComparatorNetwork,
    *,
    strategy: str = "testset",
    engine: str | None = None,
    config: ExecutionConfig | None = None,
    cache=None,
) -> bool:
    """:func:`is_sorter` with its execution configured (Session backend).

    *engine* pins the engine; ``None`` routes by *strategy*.  The
    bit-packed engine is the fast path of the 0/1 strategies (the cube
    never leaves packed form; ``testset`` masks out the sorted inputs).
    With a *config* the bit-packed 0/1 strategies stream the cube in
    fixed-size block ranges (constant memory, optionally across worker
    processes); the permutation strategies chunk their word batches.
    With a *cache* (:class:`repro.cache.ResultCache`), the bit-packed
    ``binary`` and ``testset`` checks route through
    :func:`repro.cache.cached_cube_sorted` — a verdict memo plus prefix
    restore, bit-identical to the plain cube sweep — unless the network
    overrides its evaluation (:func:`repro.cache.cacheable_network`).
    """
    if strategy not in SORTER_STRATEGIES:
        raise TestSetError(
            f"unknown strategy {strategy!r}; choose one of {SORTER_STRATEGIES}"
        )
    engine = route_engine(engine, strategy)
    n = network.n_lines
    streaming = config is not None and config.streaming
    if engine == "bitpacked":  # a 0/1 strategy: route_engine refuses others
        restrict = strategy == "testset"
        if streaming:
            from ..parallel.executor import streamed_is_sorter

            return streamed_is_sorter(
                network, restrict_to_unsorted_inputs=restrict, config=config
            )
        if cache is not None:
            from ..cache.keys import cacheable_network
            from ..cache.restore import cached_cube_sorted

            if cacheable_network(network):
                return cached_cube_sorted(
                    network, cache=cache, restrict_to_unsorted_inputs=restrict
                )
        rank = _sorting_failure_rank(
            network,
            packed_all_binary_words(n),
            restrict_to_unsorted_inputs=restrict,
        )
        return rank is None
    if streaming and strategy not in BINARY_STRATEGIES:
        from ..parallel.executor import chunked_words_all_sorted
        from ..words.chains import sorting_cover_permutations

        words = (
            list(all_permutations(n))
            if strategy == "permutation"
            else sorting_cover_permutations(n)
        )
        return chunked_words_all_sorted(
            network, words, engine=engine, config=config
        )
    if strategy == "binary":
        return _outputs_all_sorted(network, all_binary_words_array(n), engine=engine)
    if strategy == "testset":
        return _outputs_all_sorted(
            network, unsorted_binary_words_array(n), engine=engine
        )
    if strategy == "permutation":
        outputs = outputs_on_words(network, all_permutations(n), engine=engine)
        return bool(np.all(batch_is_sorted(outputs)))
    # permutation-testset
    from ..words.chains import sorting_cover_permutations

    perms = sorting_cover_permutations(n)
    if not perms:  # n == 1: nothing to test
        return True
    outputs = outputs_on_words(network, perms, engine=engine)
    return bool(np.all(batch_is_sorted(outputs)))


def find_sorting_counterexample(
    network: ComparatorNetwork,
    *,
    candidates: Iterable[WordLike] | None = None,
) -> BinaryWord | None:
    """Return a binary word the network fails to sort, or ``None`` if it sorts all.

    By default searches the minimum test set (equivalently, all unsorted
    binary words) with the ``testset`` strategy's packed cube sweep
    (:func:`repro.parallel.streamed_sorting_failure_rank`): one span up to
    ``n = 20``, constant memory above, and the first failing word in rank
    order.  A custom candidate iterable can be supplied, e.g. to search
    only a restricted test set in the empirical lower-bound experiments;
    it is searched in its own order on the kernel of its value domain
    (:func:`repro.core.evaluation.route_words`).
    """
    n = network.n_lines
    if candidates is None:
        from ..parallel.executor import streamed_sorting_failure_rank

        rank = streamed_sorting_failure_rank(
            network, restrict_to_unsorted_inputs=True
        )
        return None if rank is None else rank_to_word(rank, n)
    engine, batch = route_words(None, candidates, n)
    if not len(batch):
        return None
    if engine == "bitpacked":
        outputs = apply_network_packed(
            network, pack_batch(batch, n_lines=n), copy=False
        )
        sorted_mask = packed_is_sorted(outputs)
    else:
        sorted_mask = batch_is_sorted(apply_network_to_batch(network, batch))
    if bool(np.all(sorted_mask)):
        return None
    index = int(np.flatnonzero(~sorted_mask)[0])
    return tuple(int(v) for v in batch[index])
