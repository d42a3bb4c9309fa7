"""Deciding whether a network is a ``(k, n)``-selector.

The paper's definition (for 0/1 inputs): ``H`` is a ``(k, n)``-selector if
for every binary word ``sigma`` and every ``i <= k``, output line ``i``
carries the ``i``-th smallest bit of ``sigma``.  Equivalently, whenever
``sigma`` has at least ``i`` zeroes, output line ``i`` must be 0 — i.e. the
first ``min(k, |sigma|_0)`` output lines must all be 0.

For general inputs: line ``i`` must carry the ``i``-th smallest input value
for every ``i <= k``.  The two definitions agree by the zero–one principle
argument in Theorem 2.4.

Strategies:

``binary``
    Exhaustive over all ``2**n`` binary words.
``testset``
    Evaluate the paper's minimum test set ``T_k^n`` (unsorted words with at
    most ``k`` zeroes, Theorem 2.4 (i)).
``permutation``
    Exhaustive over all ``n!`` permutations.
``permutation-testset``
    The ``C(n, min(k, floor(n/2))) - 1`` cover permutations of
    Theorem 2.4 (ii).

The strategy picks the engine (:func:`repro.core.evaluation.route_engine`):
:func:`is_selector` and an unpinned :class:`repro.api.Session` run the 0/1
strategies bit-packed and the permutation strategies vectorised, and a
Session's ``engine`` pins another (a bit-packed pin refuses the
permutation strategies).  The bit-packed engine runs the 0/1 strategies
*fully packed* — zero counts come from a vertical (bit-sliced) popcount
over the input planes and the first ``k`` output planes are compared
against them without ever unpacking.  An execution configuration
(:class:`repro.parallel.ExecutionConfig`, from a Session's ``workers`` /
``chunk_size``) streams the 0/1 strategies over the cube in fixed-size block ranges, optionally across worker processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._typing import BinaryWord
from ..core.bitpacked import (
    apply_network_packed,
    pack_batch,
    packed_selection_violation_blocks,
    rank_to_word,
    unpack_bits,
)
from ..core.evaluation import (
    all_binary_words_array,
    apply_network_to_batch,
    outputs_on_words,
    route_engine,
)
from ..core.network import ComparatorNetwork
from ..core.scratch import shared_arena
from ..exceptions import TestSetError
from ..words.permutations import all_permutations

if TYPE_CHECKING:
    from ..parallel.config import ExecutionConfig

__all__ = [
    "is_selector",
    "selects_correctly",
    "find_selection_counterexample",
    "SELECTOR_STRATEGIES",
]

SELECTOR_STRATEGIES = ("binary", "testset", "permutation", "permutation-testset")


def _check_k(network: ComparatorNetwork, k: int) -> None:
    if k < 1 or k > network.n_lines:
        raise TestSetError(
            f"selector parameter k={k} out of range 1..{network.n_lines}"
        )


def selects_correctly(network: ComparatorNetwork, k: int, word) -> bool:
    """Does the network place the ``i``-th smallest input on line ``i`` for ``i < k``?

    Works for arbitrary integer words (including permutations), matching the
    paper's general definition.
    """
    _check_k(network, k)
    values = tuple(int(v) for v in word)
    output = network.apply(values)
    expected = sorted(values)[:k]
    return list(output[:k]) == expected


def _binary_batch_selected(
    network: ComparatorNetwork,
    batch: np.ndarray,
    k: int,
    *,
    engine: str,
) -> np.ndarray:
    """Boolean vector: for each binary word row, is it correctly k-selected?

    With ``engine="bitpacked"`` the check runs fully packed: the batch is
    packed once, zero counts are taken as a vertical popcount over the
    input planes, and the first ``k`` output planes are compared in place
    (:func:`repro.core.bitpacked.packed_selection_violation_blocks`) — no
    round trip through the unpacked engine.  The violation mask is built
    on this thread's shared :class:`repro.core.PlaneArena` for the batch
    geometry, so the sweep itself allocates nothing (same discipline as
    the sorter's :func:`repro.core.bitpacked.packed_is_sorted_arena` path).
    """
    if engine == "bitpacked":
        packed = pack_batch(batch, n_lines=network.n_lines)
        outputs = apply_network_packed(network, packed, copy=True)
        arena = shared_arena(network.n_lines, packed.n_blocks, packed.planes.dtype)
        slot = arena.acquire()
        try:
            violations = packed_selection_violation_blocks(
                packed, outputs, k, arena=arena, out=arena.plane(slot)
            )
            return ~unpack_bits(violations, packed.num_words)
        finally:
            arena.release(slot)
    outputs = apply_network_to_batch(network, batch, engine=engine)
    zero_counts = np.sum(np.asarray(batch) == 0, axis=1)
    # For each word, the first min(k, zeros) outputs must be 0; the remaining
    # outputs among the first k must be 1 (they correspond to positions past
    # the number of zeroes, whose i-th smallest is 1).
    n = batch.shape[1]
    positions = np.arange(n)
    required_zero = positions[None, :] < np.minimum(zero_counts, k)[:, None]
    required_one = (positions[None, :] < k) & (
        positions[None, :] >= zero_counts[:, None]
    )
    ok_zero = np.all(np.where(required_zero, outputs == 0, True), axis=1)
    ok_one = np.all(np.where(required_one, outputs == 1, True), axis=1)
    return ok_zero & ok_one


def is_selector(
    network: ComparatorNetwork,
    k: int,
    *,
    strategy: str = "testset",
) -> bool:
    """Decide whether *network* is a ``(k, n)``-selector.

    :meth:`repro.api.Session.verify` (``prop="selector"``) gives the same
    verdict on a configured engine, worker pool and chunk size.
    """
    return _is_selector_impl(network, k, strategy=strategy)


def _is_selector_impl(
    network: ComparatorNetwork,
    k: int,
    *,
    strategy: str = "testset",
    engine: str | None = None,
    config: ExecutionConfig | None = None,
) -> bool:
    """:func:`is_selector` with its execution configured (Session backend).

    *engine* pins the engine; ``None`` routes by *strategy*.  With a
    *config* and the bit-packed engine the 0/1 strategies stream
    the packed cube in fixed-size block ranges — constant memory at any
    ``n``, optionally sharded across worker processes — with a verdict
    identical to the single-shot path.
    """
    if strategy not in SELECTOR_STRATEGIES:
        raise TestSetError(
            f"unknown strategy {strategy!r}; choose one of {SELECTOR_STRATEGIES}"
        )
    engine = route_engine(engine, strategy)
    _check_k(network, k)
    n = network.n_lines
    if config is not None and config.streaming and engine == "bitpacked":
        from ..parallel.executor import streamed_is_selector

        return streamed_is_selector(
            network,
            k,
            restrict_to_test_words=(strategy == "testset"),
            config=config,
        )
    if strategy == "binary":
        batch = all_binary_words_array(n)
        return bool(np.all(_binary_batch_selected(network, batch, k, engine=engine)))
    if strategy == "testset":
        from ..testsets.selection import selector_binary_test_set

        words = selector_binary_test_set(n, k)
        if not words:
            return True
        batch = np.asarray(words, dtype=np.int8)
        return bool(np.all(_binary_batch_selected(network, batch, k, engine=engine)))
    if strategy == "permutation":
        outputs = outputs_on_words(network, all_permutations(n), engine=engine)
        expected = np.arange(k)
        return bool(np.all(outputs[:, :k] == expected[None, :]))
    # permutation-testset
    from ..words.chains import selector_cover_permutations

    perms = selector_cover_permutations(n, k)
    if not perms:
        return True
    outputs = outputs_on_words(network, perms, engine=engine)
    expected = np.arange(k)
    return bool(np.all(outputs[:, :k] == expected[None, :]))


def find_selection_counterexample(
    network: ComparatorNetwork, k: int
) -> BinaryWord | None:
    """A binary word on which ``(k, n)``-selection fails, or ``None``.

    The ``binary`` strategy's packed cube sweep
    (:func:`repro.parallel.streamed_selection_failure_rank`): one span up
    to ``n = 20``, constant memory above, and the first failing word in
    rank order.
    """
    from ..parallel.executor import streamed_selection_failure_rank

    _check_k(network, k)
    rank = streamed_selection_failure_rank(network, k)
    return None if rank is None else rank_to_word(rank, network.n_lines)
