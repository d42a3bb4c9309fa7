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

Checkers accept an ``engine`` keyword
(:data:`repro.core.evaluation.EVALUATION_ENGINES`); the bit-packed engine
runs the 0/1 strategies *fully packed* — zero counts come from a vertical
(bit-sliced) popcount over the input planes and the first ``k`` output
planes are compared against them without ever unpacking — while the
permutation strategies fall back from ``"bitpacked"`` to ``"vectorized"``
(their values exceed 1).  A ``config`` keyword
(:class:`repro.parallel.ExecutionConfig`) streams the 0/1 strategies over
the cube in fixed-size block ranges, optionally across worker processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._compat import UNSET, unset_or, warn_legacy_exec_kwargs
from .._typing import BinaryWord
from ..core.bitpacked import (
    apply_network_packed,
    pack_batch,
    packed_selection_violation_blocks,
    unpack_bits,
)
from ..core.evaluation import (
    all_binary_words_array,
    apply_network_to_batch,
    check_engine,
    nonbinary_engine,
    outputs_on_words,
)
from ..core.network import ComparatorNetwork
from ..core.scratch import allocation_free, shared_arena
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


@allocation_free
def _selection_violations_arena(packed, outputs, k, arena, out):
    """Arena-disciplined violation mask of the selector property checker.

    The single seam through which the property layer computes packed
    k-selection violations: counter planes and sweep temporaries come from
    *arena* and the mask lands in *out* (a caller-acquired arena row), so
    the steady-state check is allocation-free — enforced at runtime by the
    ``assert_allocation_free`` scenario in ``tests/test_devtools_sanitize.py``.
    """
    return packed_selection_violation_blocks(
        packed, outputs, k, arena=arena, out=out
    )


def _binary_batch_selected(
    network: ComparatorNetwork,
    batch: np.ndarray,
    k: int,
    *,
    engine: str = "vectorized",
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
            violations = _selection_violations_arena(
                packed, outputs, k, arena, arena.plane(slot)
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
    engine: str = UNSET,
    config: ExecutionConfig | None = UNSET,
) -> bool:
    """Decide whether *network* is a ``(k, n)``-selector.

    *config* (an :class:`repro.parallel.ExecutionConfig`) streams the 0/1
    strategies over the packed cube in fixed-size block ranges when
    ``engine="bitpacked"`` — constant memory at any ``n``, optionally
    sharded across worker processes — with a verdict identical to the
    single-shot path.

    .. deprecated::
        Explicitly passing ``engine`` / ``config`` is deprecated; use
        :meth:`repro.api.Session.verify` (same verdict, typed result).
    """
    warn_legacy_exec_kwargs("is_selector", engine=engine, config=config)
    return _is_selector_impl(
        network,
        k,
        strategy=strategy,
        engine=unset_or(engine, "vectorized"),
        config=unset_or(config, None),
    )


def _is_selector_impl(
    network: ComparatorNetwork,
    k: int,
    *,
    strategy: str = "testset",
    engine: str = "vectorized",
    config: ExecutionConfig | None = None,
) -> bool:
    """Non-deprecating form of :func:`is_selector` (Session backend)."""
    if strategy not in SELECTOR_STRATEGIES:
        raise TestSetError(
            f"unknown strategy {strategy!r}; choose one of {SELECTOR_STRATEGIES}"
        )
    check_engine(engine)
    permutation_engine = nonbinary_engine(engine)
    _check_k(network, k)
    n = network.n_lines
    if (
        config is not None
        and config.streaming
        and engine == "bitpacked"
        and strategy in ("binary", "testset")
    ):
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
        outputs = outputs_on_words(
            network, all_permutations(n), engine=permutation_engine
        )
        expected = np.arange(k)
        return bool(np.all(outputs[:, :k] == expected[None, :]))
    # permutation-testset
    from ..words.chains import selector_cover_permutations

    perms = selector_cover_permutations(n, k)
    if not perms:
        return True
    outputs = outputs_on_words(network, perms, engine=permutation_engine)
    expected = np.arange(k)
    return bool(np.all(outputs[:, :k] == expected[None, :]))


def find_selection_counterexample(
    network: ComparatorNetwork, k: int
) -> BinaryWord | None:
    """A binary word on which ``(k, n)``-selection fails, or ``None``."""
    _check_k(network, k)
    batch = all_binary_words_array(network.n_lines)
    ok = _binary_batch_selected(network, batch, k)
    if bool(np.all(ok)):
        return None
    index = int(np.flatnonzero(~ok)[0])
    return tuple(int(v) for v in batch[index])
