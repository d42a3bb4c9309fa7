"""Deciding whether a candidate set of inputs is a test set.

The paper's definition: ``T`` is a test set for a property if, for *every*
network ``H``, observing ``H`` on the inputs in ``T`` decides whether ``H``
has the property.  Quantifying over all networks is impossible directly, but
the paper's own results turn the definition into checkable conditions:

* **Sorting, 0/1 inputs** — ``T`` is a test set iff it contains every
  non-sorted word (necessity: Lemma 2.1; sufficiency: sorted inputs carry no
  information for standard networks).
* **Sorting, permutations** — ``T`` is a test set iff its cover contains
  every non-sorted word (Floyd's lemma + the above).
* **Selection** — same statements with "non-sorted word" replaced by the
  members of ``T_k^n`` (Lemma 2.3 / Theorem 2.4).
* **Merging** — same statements with the unsorted half-sorted words
  (Theorem 2.5); only half-sorted inputs are legal tests.

Each ``is_*_test_set`` function below implements the corresponding
characterisation and, where useful, can also report *which* required words
are missing / uncovered.  The empirical cross-check against explicit
adversary populations lives in :mod:`repro.testsets.minimal`.

:func:`network_passes_test_set` is the other half of the story — the
decision procedure a tester actually runs: apply every word of a test set to
a device and accept iff every observed output is sorted.
:func:`network_passes_test_set` and
:meth:`repro.api.Session.passes_test_set` route by value domain
(:func:`repro.core.evaluation.route_engine`): 0/1 test sets run through
the bit-packed engine, permutation test sets through the vectorised one.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .._typing import BinaryWord, WordLike
from ..core.evaluation import (
    _explicit_word_dtype,
    apply_network_to_batch,
    batch_is_sorted,
    narrow_binary_batch,
    route_words,
    words_to_array,
)
from ..core.network import ComparatorNetwork
from ..exceptions import TestSetError
from ..words.binary import check_binary, is_sorted_word
from ..words.covers import cover_of_permutation_set
from ..words.permutations import check_permutation
from .merging import merging_binary_test_set
from .selection import selector_binary_test_set
from .sorting import sorting_binary_test_set

__all__ = [
    "network_passes_test_set",
    "is_sorting_test_set_binary",
    "is_sorting_test_set_permutation",
    "is_selector_test_set_binary",
    "is_selector_test_set_permutation",
    "is_merging_test_set_binary",
    "is_merging_test_set_permutation",
    "missing_required_words",
    "uncovered_required_words",
]


def _as_binary_set(words: Iterable[WordLike], n: int) -> set[BinaryWord]:
    result: set[BinaryWord] = set()
    for word in words:
        w = check_binary(word)
        if len(w) != n:
            raise TestSetError(
                f"test word {w!r} has length {len(w)}, expected {n}"
            )
        result.add(w)
    return result


def _as_permutation_list(perms: Iterable[WordLike], n: int) -> list[tuple[int, ...]]:
    result = []
    for perm in perms:
        p = check_permutation(perm)
        if len(p) != n:
            raise TestSetError(
                f"test permutation {p!r} has length {len(p)}, expected {n}"
            )
        result.append(p)
    return result


def missing_required_words(
    candidate: Iterable[WordLike], required: Sequence[BinaryWord]
) -> list[BinaryWord]:
    """Required binary words absent from a candidate binary test set."""
    if not required:
        return []
    n = len(required[0])
    have = _as_binary_set(candidate, n)
    return [w for w in required if w not in have]


def uncovered_required_words(
    candidate_permutations: Iterable[WordLike], required: Sequence[BinaryWord]
) -> list[BinaryWord]:
    """Required binary words not covered by any candidate permutation."""
    if not required:
        return []
    n = len(required[0])
    perms = _as_permutation_list(candidate_permutations, n)
    covered = cover_of_permutation_set(perms)
    return [w for w in required if w not in covered]


def network_passes_test_set(
    network: ComparatorNetwork,
    test_words: Iterable[WordLike],
) -> bool:
    """Apply a test set to a device: ``True`` iff every output is sorted.

    This is the tester's decision procedure from the paper: feed each word
    of ``T`` to the chip and accept exactly when every observed output is
    sorted.  For a valid test set the verdict equals "the device has the
    property"; for an arbitrary word collection it is simply "no applied
    word exposed the device".  Works for binary words and permutations
    alike (a sorted permutation output is ``0..n-1``).
    :meth:`repro.api.Session.passes_test_set` returns the same verdict on
    a configured engine, worker pool and chunk size, inside a typed
    result object.
    """
    return _network_passes_test_set_impl(network, test_words)


def _network_passes_test_set_impl(
    network: ComparatorNetwork,
    test_words: Iterable[WordLike],
    *,
    engine: str | None = None,
    config=None,
    cache=None,
) -> bool:
    """:func:`network_passes_test_set` with its execution configured
    (Session backend).

    *engine* pins the engine; ``None`` routes by the words
    (:func:`repro.core.evaluation.route_words`), and a bit-packed pin
    raises :class:`~repro.exceptions.NotBinaryError` on non-binary words.
    A *config* (an :class:`repro.parallel.ExecutionConfig`) applies the
    test set chunk by chunk — bounded memory on exhaustive-scale sets,
    optionally sharded across worker processes — with the same verdict.
    With a *cache* (a :class:`repro.cache.ResultCache`) and the bit-packed
    engine, the verdict is memoised per exact network and input
    fingerprint, and on a verdict miss the simulation reuses the longest
    cached comparator prefix — same ``True``/``False`` either way.
    """
    engine, words = route_words(engine, test_words, network.n_lines)
    # One C-level pass to build the batch, numpy min/max for the dtype and
    # binary decisions — exhaustive-scale test sets must not pay per-element
    # Python loops before the fast engine even starts.  Fractional words keep
    # their values (a bit-packed pin then refuses them in the packer).
    batch = words_to_array(
        words, dtype=_explicit_word_dtype(words), n_lines=network.n_lines
    )
    if not len(batch):
        return True
    if cache is not None and engine == "bitpacked" and config is None:
        verdict = _cached_passes(network, batch, cache)
        if verdict is not None:
            return verdict
    if config is not None and config.streaming:
        from ..parallel.executor import chunked_words_all_sorted

        return chunked_words_all_sorted(network, batch, engine=engine, config=config)
    batch = narrow_binary_batch(batch)
    outputs = apply_network_to_batch(network, batch, copy=False, engine=engine)
    return bool(np.all(batch_is_sorted(outputs)))


def _cached_passes(
    network: ComparatorNetwork, batch: np.ndarray, cache
) -> bool | None:
    """Cache-served test-set verdict, or ``None`` when not cacheable.

    Networks that override their evaluation
    (:func:`repro.cache.cacheable_network`) take the ordinary path — the
    cache only covers the bit-packed 0/1 pipeline of plain comparator
    networks, so non-binary words fail in the packer as uncached ones do.
    """
    from ..cache.keys import array_token, cacheable_network, network_token
    from ..cache.restore import acquire_prefix_states
    from ..core.bitpacked import pack_batch, packed_is_sorted_arena
    from ..core.scratch import shared_arena

    if not cacheable_network(network):
        return None
    input_token = array_token(batch)
    key = ("passes", network_token(network), input_token)
    hit = cache.get_verdict(key)
    if hit is not None:
        return bool(hit)
    token = (*input_token, 0, len(batch))
    packed = cache.get_input(token)
    if packed is None:
        packed = pack_batch(batch, n_lines=network.n_lines)
        cache.put_input(token, packed)
    states = acquire_prefix_states(network, packed, cache=cache, token=token)
    arena = shared_arena(network.n_lines, packed.n_blocks, packed.planes.dtype)
    outputs = states.state_after(network.size, out=arena.state)
    verdict = bool(packed_is_sorted_arena(outputs, arena))
    cache.put_verdict(key, verdict)
    return verdict


# ----------------------------------------------------------------------
# Sorting
# ----------------------------------------------------------------------
def is_sorting_test_set_binary(candidate: Iterable[WordLike], n: int) -> bool:
    """Is *candidate* a 0/1 test set for sorting on *n* lines?"""
    return not missing_required_words(candidate, sorting_binary_test_set(n))


def is_sorting_test_set_permutation(candidate: Iterable[WordLike], n: int) -> bool:
    """Is *candidate* (a set of permutations) a test set for sorting?"""
    return not uncovered_required_words(candidate, sorting_binary_test_set(n))


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def is_selector_test_set_binary(
    candidate: Iterable[WordLike], n: int, k: int
) -> bool:
    """Is *candidate* a 0/1 test set for the ``(k, n)``-selector property?"""
    return not missing_required_words(candidate, selector_binary_test_set(n, k))


def is_selector_test_set_permutation(
    candidate: Iterable[WordLike], n: int, k: int
) -> bool:
    """Is *candidate* (permutations) a test set for ``(k, n)``-selection?"""
    return not uncovered_required_words(candidate, selector_binary_test_set(n, k))


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def _check_merging_candidate_words(candidate: set[BinaryWord], n: int) -> None:
    half = n // 2
    for word in candidate:
        if not (is_sorted_word(word[:half]) and is_sorted_word(word[half:])):
            raise TestSetError(
                f"{word!r} is not a legal merging test input (halves must be sorted)"
            )


def is_merging_test_set_binary(candidate: Iterable[WordLike], n: int) -> bool:
    """Is *candidate* a 0/1 test set for the ``(n/2, n/2)``-merging property?

    Candidate words must themselves be legal merging inputs (sorted halves);
    illegal words raise :class:`~repro.exceptions.TestSetError` rather than
    being silently ignored.
    """
    required = merging_binary_test_set(n)
    have = _as_binary_set(candidate, n)
    _check_merging_candidate_words(have, n)
    return all(w in have for w in required)


def is_merging_test_set_permutation(candidate: Iterable[WordLike], n: int) -> bool:
    """Is *candidate* (permutations with sorted halves) a merging test set?"""
    required = merging_binary_test_set(n)
    perms = _as_permutation_list(candidate, n)
    half = n // 2
    for perm in perms:
        if not (is_sorted_word(perm[:half]) and is_sorted_word(perm[half:])):
            raise TestSetError(
                f"{perm!r} is not a legal merging test input (halves must be sorted)"
            )
    covered = cover_of_permutation_set(perms)
    return all(w in covered for w in required)
