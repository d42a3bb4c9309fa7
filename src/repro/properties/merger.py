"""Deciding whether a network is an ``(n/2, n/2)``-merging network.

The paper's definition: for an even ``n``, ``H`` is a merging network if for
every pair of sorted halves ``sigma_1``, ``sigma_2`` (each of length
``n/2``), ``H(sigma_1 sigma_2)`` is sorted.

For 0/1 inputs there are only ``(n/2 + 1)^2`` such concatenations, of which
``n^2/4`` are themselves unsorted — Theorem 2.5 (i) shows those unsorted
concatenations are exactly the minimum test set.

Strategies:

``binary``
    All ``(n/2 + 1)^2`` concatenations of sorted binary halves.
``testset``
    The paper's ``n^2/4`` unsorted concatenations (Theorem 2.5 (i)).
``permutation``
    All pairs of sorted halves drawn from a permutation of ``0..n-1``
    (i.e. every way to split ``0..n-1`` into two halves, each fed in sorted
    order) — the exhaustive permutation-model check.
``permutation-testset``
    The ``n/2`` permutations of Theorem 2.5 (ii).

The strategy picks the engine (:func:`repro.core.evaluation.route_engine`):
:func:`is_merger` and an unpinned :class:`repro.api.Session` run the 0/1
strategies bit-packed and the permutation strategies vectorised, and a
Session's ``engine`` pins another (a bit-packed pin refuses the
permutation strategies).  An execution configuration
(:class:`repro.parallel.ExecutionConfig`, from a Session's ``workers`` /
``chunk_size``) evaluates the chosen strategy's
word list chunk by chunk (bounded memory on the ``C(n, n/2)``-sized
permutation model), optionally sharded across worker processes.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .._typing import BinaryWord
from ..core.bitpacked import (
    apply_network_packed,
    pack_batch,
    packed_is_sorted_arena,
)
from ..core.evaluation import (
    batch_is_sorted,
    outputs_on_words,
    route_engine,
)
from ..core.network import ComparatorNetwork
from ..core.scratch import shared_arena
from ..exceptions import TestSetError
from ..words.binary import is_sorted_word, sorted_binary_words
from .sorter import find_sorting_counterexample

if TYPE_CHECKING:
    from ..parallel.config import ExecutionConfig

__all__ = [
    "is_merger",
    "merges_correctly",
    "find_merging_counterexample",
    "all_sorted_half_pairs",
    "permutation_merge_inputs",
    "MERGER_STRATEGIES",
]

MERGER_STRATEGIES = ("binary", "testset", "permutation", "permutation-testset")


def _check_even(network: ComparatorNetwork) -> int:
    n = network.n_lines
    if n % 2 != 0 or n < 2:
        raise TestSetError(
            f"(n/2, n/2)-merging is defined for even n >= 2, got n={n}"
        )
    return n // 2


def all_sorted_half_pairs(n: int) -> list[BinaryWord]:
    """Every concatenation of two sorted binary halves of length ``n/2``."""
    if n % 2 != 0 or n < 2:
        raise TestSetError(f"merging inputs require even n >= 2, got {n}")
    half = n // 2
    halves = sorted_binary_words(half)
    return [tuple(a) + tuple(b) for a in halves for b in halves]


def permutation_merge_inputs(n: int) -> list[tuple]:
    """Every permutation input whose two halves are individually increasing.

    Each way of choosing which ``n/2`` of the values ``0..n-1`` enter the
    first half (in increasing order, the rest entering the second half in
    increasing order) gives one input; there are ``C(n, n/2)`` of them.
    """
    if n % 2 != 0 or n < 2:
        raise TestSetError(f"merging inputs require even n >= 2, got {n}")
    half = n // 2
    inputs = []
    for first in combinations(range(n), half):
        second = tuple(v for v in range(n) if v not in set(first))
        inputs.append(tuple(first) + second)
    return inputs


def _packed_merge_verdict(network: ComparatorNetwork, words) -> bool:
    """The bit-packed merging verdict over a 0/1 word list.

    Packs the half-sorted inputs once, applies the network in plane form
    and judges the outputs with
    :func:`repro.core.bitpacked.packed_is_sorted_arena` on the shared
    arena for the batch geometry — bit-identical to the unpacked
    ``batch_is_sorted`` sweep.
    """
    batch = np.asarray(words, dtype=np.int8)
    packed = pack_batch(batch, n_lines=network.n_lines)
    outputs = apply_network_packed(network, packed, copy=False)
    arena = shared_arena(outputs.n_lines, outputs.n_blocks, outputs.planes.dtype)
    return packed_is_sorted_arena(outputs, arena)


def merges_correctly(network: ComparatorNetwork, word) -> bool:
    """Does the network sort this (already half-sorted) input word?"""
    half = _check_even(network)
    values = tuple(int(v) for v in word)
    if not (is_sorted_word(values[:half]) and is_sorted_word(values[half:])):
        raise TestSetError(
            f"merging inputs must have sorted halves, got {values!r}"
        )
    return is_sorted_word(network.apply(values))


def is_merger(
    network: ComparatorNetwork,
    *,
    strategy: str = "testset",
) -> bool:
    """Decide whether *network* is an ``(n/2, n/2)``-merging network.

    :meth:`repro.api.Session.verify` (``prop="merger"``) gives the same
    verdict on a configured engine, worker pool and chunk size.
    """
    return _is_merger_impl(network, strategy=strategy)


def _is_merger_impl(
    network: ComparatorNetwork,
    *,
    strategy: str = "testset",
    engine: str | None = None,
    config: ExecutionConfig | None = None,
) -> bool:
    """:func:`is_merger` with its execution configured (Session backend);
    *engine* pins the engine, ``None`` routes by *strategy*."""
    if strategy not in MERGER_STRATEGIES:
        raise TestSetError(
            f"unknown strategy {strategy!r}; choose one of {MERGER_STRATEGIES}"
        )
    engine = route_engine(engine, strategy)
    half = _check_even(network)
    n = network.n_lines
    if strategy == "binary":
        words = all_sorted_half_pairs(n)
    elif strategy == "testset":
        from ..testsets.merging import merging_binary_test_set

        words = merging_binary_test_set(n)
    elif strategy == "permutation":
        words = permutation_merge_inputs(n)
    else:  # permutation-testset
        from ..testsets.merging import merging_permutation_test_set

        words = merging_permutation_test_set(n)
    if not words:
        return True
    if config is not None and config.streaming:
        from ..parallel.executor import chunked_words_all_sorted

        return chunked_words_all_sorted(network, words, engine=engine, config=config)
    if engine == "bitpacked":
        # 0/1 strategies never leave plane form: the violation mask runs
        # on arena rows (the RPR001 discipline the sorter and selector
        # checkers share).
        return _packed_merge_verdict(network, words)
    outputs = outputs_on_words(network, words, engine=engine)
    return bool(np.all(batch_is_sorted(outputs)))


def find_merging_counterexample(
    network: ComparatorNetwork,
) -> BinaryWord | None:
    """A half-sorted binary input the network fails to merge, or ``None``.

    :func:`repro.properties.find_sorting_counterexample` over
    :func:`all_sorted_half_pairs`: the first failing pair in that order.
    """
    _check_even(network)
    return find_sorting_counterexample(
        network, candidates=all_sorted_half_pairs(network.n_lines)
    )
