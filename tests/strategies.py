"""Shared hypothesis strategies for the property-based test layer.

One place for the generators the differential-oracle tests are built on —
random comparator networks, explicit 0/1 test batches, fault universes
drawn from the registered model zoo, and the engine / criterion /
chunk-size combinations every bit-identity guarantee is quantified over.
The test modules import from here instead of copy-pasting composites,
together with the two Session one-liners (:func:`session_matrix`,
:func:`session_verdict`) the engine cross-checks are spelled with.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

import repro.faults  # noqa: F401  (imports register the fault-model zoo)
from repro._registry import fault_model_names
from repro.api import Session
from repro.constructions import batcher_sorting_network
from repro.core import ComparatorNetwork
from repro.core.bitpacked import rank_to_word
from repro.core.evaluation import (
    all_binary_words_array,
    apply_network_to_batch,
    batch_is_sorted,
    unsorted_binary_words_array,
)
from repro.core.network import Comparator
from repro.faults import enumerate_model_faults, enumerate_single_faults
from repro.testsets import near_sorter

__all__ = [
    "chunk_boundary_cases",
    "networks",
    "cube_subsets",
    "extended_universes",
    "fault_universes",
    "fault_models",
    "mutate_one",
    "session_matrix",
    "session_verdict",
    "vectorized_first_failure",
    "odd_chunks",
    "criteria",
    "engines",
]

# Chunk sizes that straddle the 64-bit block boundary of the bit-packed
# engine (1 word, sub-block, block-1, exact block, block+1, multi-block).
odd_chunks = st.sampled_from([1, 3, 7, 63, 64, 65, 100])
criteria = st.sampled_from(["specification", "reference"])
engines = st.sampled_from(["vectorized", "bitpacked"])
fault_models = st.sampled_from(fault_model_names())


@st.composite
def networks(draw, min_lines: int = 2, max_lines: int = 7, max_size: int = 12):
    """A random comparator network (standard and reversed comparators)."""
    n = draw(st.integers(min_lines, max_lines))
    size = draw(st.integers(0, max_size))
    comparators = []
    for _ in range(size):
        low = draw(st.integers(0, n - 2))
        high = draw(st.integers(low + 1, n - 1))
        comparators.append(Comparator(low, high, draw(st.booleans())))
    return ComparatorNetwork(n, comparators)


@st.composite
def cube_subsets(draw, n_lines: int, max_words: int = 48):
    """An explicit 0/1 batch: random cube rows, duplicates allowed."""
    cube = all_binary_words_array(n_lines)
    count = draw(st.integers(1, max_words))
    rows = draw(
        st.lists(
            st.integers(0, cube.shape[0] - 1), min_size=count, max_size=count
        )
    )
    return cube[np.asarray(rows)]


@st.composite
def fault_universes(draw, network: ComparatorNetwork, max_faults: int = 32):
    """(model name, fault universe) for one registered model on ``network``.

    Oversized universes are windowed to ``max_faults`` consecutive faults
    (window position drawn) so the simulators stay cheap under hypothesis
    while every model — including the k-subset composites — keeps getting
    exercised.
    """
    name = draw(fault_models)
    universe = enumerate_model_faults(network, name)
    if len(universe) > max_faults:
        start = draw(st.integers(0, len(universe) - max_faults))
        universe = universe[start : start + max_faults]
    return name, universe


@st.composite
def extended_universes(draw, network: ComparatorNetwork, max_repeats: int = 8):
    """The stage-extended single-fault universe of ``network``, shuffled,
    with up to ``max_repeats`` of its faults drawn again.

    Line stuck-at faults are placed at every stage, so most of them are
    twins (same line, value and last writer); the drawn order interleaves
    each twin class with other faults and shard boundaries, and repeats
    add exact duplicates.
    """
    universe = enumerate_single_faults(network, line_stuck_at_input_only=False)
    repeats = draw(st.lists(st.sampled_from(universe), max_size=max_repeats))
    return draw(st.permutations(universe + repeats))


def session_matrix(
    network, faults, vectors, criterion="specification", **knobs
) -> np.ndarray:
    """The detection matrix of a ``Session(**knobs)``."""
    with Session(**knobs) as session:
        return session.fault_matrix(
            network, faults, vectors, criterion=criterion
        ).matrix


def session_verdict(network, prop="sorter", *, k=1, strategy="testset", **knobs):
    """The verdict of ``Session(**knobs).verify(...)``."""
    with Session(**knobs) as session:
        return session.verify(network, prop, k=k, strategy=strategy).verdict


def vectorized_first_failure(network: ComparatorNetwork, strategy: str):
    """The first word, in cube rank order, whose ``vectorized`` output is
    unsorted — over the whole cube (``binary``) or over the materialised
    Theorem 2.2 test set (``testset``); ``None`` when there is none."""
    n = network.n_lines
    words = (
        all_binary_words_array(n)
        if strategy == "binary"
        else unsorted_binary_words_array(n)
    )
    outputs = apply_network_to_batch(network, words, engine="vectorized")
    failing = np.flatnonzero(~batch_is_sorted(outputs))
    if failing.size == 0:
        return None
    return tuple(int(v) for v in words[failing[0]])


def mutate_one(network: ComparatorNetwork, index: int) -> ComparatorNetwork:
    """Flip the direction of one comparator (the retest-loop mutation)."""
    comps = list(network.comparators)
    c = comps[index]
    comps[index] = Comparator(c.low, c.high, not c.reversed)
    return ComparatorNetwork(network.n_lines, comps)


def chunk_boundary_cases() -> list[tuple[str, ComparatorNetwork, int | None]]:
    """``(label, network, first failing binary rank)`` around the chunk
    boundaries of the early-exit cube sweep.

    At ``n = 13`` the cube has 128 blocks and
    :func:`repro.core.bitpacked.cube_sweep_spans` judges blocks
    ``[0, 64)`` (ranks 0–4095) before ``[64, 128)``; a cube of at most 64
    blocks is one chunk, and at ``n <= 6`` it is one (padded) block.  Each
    Lemma 2.1 near-sorter ``H_sigma`` fails on exactly one word, so its
    first failing rank is ``sigma``'s, for the ``binary`` and ``testset``
    strategies alike.  The reversed-comparator network unsorts the sorted
    input of rank 1, so its ``testset`` failure comes later (rank 2).
    """

    def near(n: int, rank: int) -> ComparatorNetwork:
        return near_sorter(rank_to_word(rank, n))

    return [
        ("first-chunk", near(13, 3000), 3000),
        ("first-chunk-end", near(13, 4094), 4094),
        ("second-chunk-first-rank", near(13, 4096), 4096),
        ("last-block", near(13, 8190), 8190),
        ("one-chunk-second-block", near(7, 64), 64),
        ("one-block-n4", near(4, 5), 5),
        ("one-block-n5", near(5, 22), 22),
        ("one-block-n6", near(6, 62), 62),
        ("reversed-comparator", ComparatorNetwork(7, [Comparator(5, 6, True)]), 1),
        ("sorter-n13", batcher_sorting_network(13), None),
        ("sorter-n7", batcher_sorting_network(7), None),
        ("sorter-n5", batcher_sorting_network(5), None),
    ]
