"""The streaming / sharded execution subsystem (:mod:`repro.parallel`).

Chunk-boundary correctness is the load-bearing guarantee: streamed and
sharded results must be bit-identical to the single-shot engines for random
networks, odd chunk sizes, and the empty-batch edge cases.  Hypothesis
drives the serial chunked paths (cheap); a small number of deterministic
tests exercise the real process pools.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import session_matrix, session_verdict, vectorized_first_failure

from repro.api import Session
from repro.constructions import batcher_sorting_network
from repro.core import ComparatorNetwork
from repro.core.bitpacked import (
    pack_batch,
    packed_all_binary_words,
    packed_count_gt_blocks,
    packed_cube_range,
    packed_selection_violation_blocks,
    packed_unsorted_blocks,
    packed_zero_count_planes,
    unpack_bits,
)
from repro.core.evaluation import all_binary_words_array
from repro.core.scratch import PlaneArena
from repro.exceptions import ExecutionConfigError
from repro.faults import enumerate_single_faults
from repro.faults.simulation import _fault_detection_matrix_impl
from repro.parallel import (
    ExecutionConfig,
    chunk_spans,
    chunked_words_all_sorted,
    cube_block_spans,
    rank_to_word,
    shard_spans,
    sharded_fault_detection_matrix,
    streamed_is_selector,
    streamed_is_sorter,
    streamed_sorting_failure_rank,
)
from repro.properties.sorter import _is_sorter_impl, find_sorting_counterexample
from repro.testsets import sorting_binary_test_set
from repro.testsets.validation import _network_passes_test_set_impl


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def networks(draw, min_lines: int = 2, max_lines: int = 8, max_size: int = 14):
    n = draw(st.integers(min_lines, max_lines))
    size = draw(st.integers(0, max_size))
    comparators = []
    for _ in range(size):
        low = draw(st.integers(0, n - 2))
        high = draw(st.integers(low + 1, n - 1))
        comparators.append((low, high))
    return ComparatorNetwork.from_pairs(n, comparators)


odd_chunks = st.sampled_from([1, 3, 7, 63, 64, 65, 100, 129])


# ----------------------------------------------------------------------
# Chunk-span arithmetic
# ----------------------------------------------------------------------
def test_chunk_spans_cover_exactly_once():
    assert list(chunk_spans(0, 5)) == []
    assert list(chunk_spans(10, 100)) == [(0, 10)]
    spans = list(chunk_spans(10, 3))
    assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert list(chunk_spans(4, 0)) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_shard_spans_cover_exactly_once():
    assert shard_spans(0, 4) == []
    for total, workers in ((1, 4), (7, 2), (100, 3), (5, 100)):
        spans = shard_spans(total, workers)
        covered = [i for start, stop in spans for i in range(start, stop)]
        assert covered == list(range(total))


def test_cube_block_spans_round_up_to_blocks():
    spans = cube_block_spans(8, 65)  # 65 words -> 2 blocks per chunk
    assert spans == [(0, 2), (2, 4)]
    assert cube_block_spans(2, 1) == [(0, 1)]


def test_execution_config_validation():
    with pytest.raises(ExecutionConfigError):
        ExecutionConfig(max_workers=-1)
    with pytest.raises(ExecutionConfigError):
        ExecutionConfig(chunk_size=0)
    assert not ExecutionConfig().streaming
    assert ExecutionConfig(chunk_size=64).streaming
    assert ExecutionConfig(max_workers=0).resolved_workers() >= 1


# ----------------------------------------------------------------------
# packed_cube_range == column slices of the full packed cube
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 7, 10])
@pytest.mark.parametrize("chunk_blocks", [1, 3, 7])
def test_packed_cube_range_matches_full_cube(n, chunk_blocks):
    full = packed_all_binary_words(n)
    pieces = []
    words = 0
    start = 0
    while start < full.n_blocks:
        stop = min(full.n_blocks, start + chunk_blocks)
        part = packed_cube_range(n, start, stop)
        assert np.array_equal(part.planes, full.planes[:, start:stop])
        words += part.num_words
        pieces.append(part)
        start = stop
    assert words == 1 << n


def test_packed_cube_range_rejects_bad_spans():
    with pytest.raises(ValueError):
        packed_cube_range(4, -1, 0)
    with pytest.raises(ValueError):
        packed_cube_range(4, 0, 2)  # n=4 has a single block
    with pytest.raises(ValueError):
        packed_cube_range(-1, 0, 0)


# ----------------------------------------------------------------------
# Packed zero counts / selection check
# ----------------------------------------------------------------------
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=0,
                max_size=90,
            ),
            st.integers(0, n + 2),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_packed_zero_counts_and_compare(params):
    n, rows, threshold = params
    batch = np.asarray(rows, dtype=np.int8).reshape((len(rows), n))
    packed = pack_batch(batch, n_lines=n)
    m = max(1, n.bit_length())
    arena = PlaneArena(n, packed.n_blocks, packed.planes.dtype)
    slots = [arena.plane(arena.acquire()) for _ in range(m + 3)]
    scratch = (slots[m], slots[m + 1])
    counter = packed_zero_count_planes(packed, out=slots[:m], scratch=scratch)
    zeros = np.sum(batch == 0, axis=1)
    gt = unpack_bits(
        packed_count_gt_blocks(
            counter, threshold, packed.pad_mask(), out=slots[m + 2], scratch=scratch
        ),
        packed.num_words,
    )
    assert np.array_equal(gt, zeros > threshold)


@given(networks(), st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_packed_selection_check_matches_reference(network, data):
    from repro.properties.selector import _binary_batch_selected

    n = network.n_lines
    k = data.draw(st.integers(1, n))
    batch = all_binary_words_array(n)
    reference = _binary_batch_selected(network, batch, k, engine="vectorized")
    packed = _binary_batch_selected(network, batch, k, engine="bitpacked")
    assert np.array_equal(packed, reference)


# ----------------------------------------------------------------------
# Streamed cube verification: bit-identical across odd chunk sizes
# ----------------------------------------------------------------------
@given(networks(), odd_chunks)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_streamed_sorter_matches_single_shot(network, chunk):
    config = ExecutionConfig(max_workers=1, chunk_size=chunk)
    expected = session_verdict(network, strategy="binary", engine="bitpacked")
    assert streamed_is_sorter(network, config=config) == expected
    assert (
        session_verdict(
            network, strategy="binary", engine="bitpacked", chunk_size=chunk
        )
        == expected
    )
    assert session_verdict(
        network, strategy="testset", engine="bitpacked", chunk_size=chunk
    ) == session_verdict(network, strategy="testset", engine="bitpacked")


@given(networks(), odd_chunks)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_streamed_counterexample_is_first_in_rank_order(network, chunk):
    config = ExecutionConfig(max_workers=1, chunk_size=chunk)
    rank = streamed_sorting_failure_rank(
        network, restrict_to_unsorted_inputs=True, config=config
    )
    streamed = None if rank is None else rank_to_word(rank, network.n_lines)
    assert streamed == vectorized_first_failure(network, "testset")
    assert find_sorting_counterexample(network) == streamed


@given(networks(), odd_chunks, st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_streamed_selector_matches_single_shot(network, chunk, data):
    k = data.draw(st.integers(1, network.n_lines))
    for strategy in ("binary", "testset"):
        expected = session_verdict(
            network, "selector", k=k, strategy=strategy, engine="bitpacked"
        )
        assert (
            session_verdict(
                network, "selector", k=k, strategy=strategy,
                engine="bitpacked", chunk_size=chunk,
            )
            == expected
        )


def test_streamed_failure_rank_points_at_first_unsorted_output():
    network = batcher_sorting_network(8).without_comparator(3)
    config = ExecutionConfig(chunk_size=32)
    rank = streamed_sorting_failure_rank(network, config=config)
    assert rank is not None
    word = rank_to_word(rank, 8)
    assert find_sorting_counterexample(network) == word


# ----------------------------------------------------------------------
# Chunked explicit word lists (merger / test-set validation)
# ----------------------------------------------------------------------
@given(networks(min_lines=4), odd_chunks)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chunked_test_set_application_matches(network, chunk):
    config = ExecutionConfig(max_workers=1, chunk_size=chunk)
    words = sorting_binary_test_set(network.n_lines)
    with Session(engine="bitpacked") as session:
        expected = session.passes_test_set(network, words).passed
    with Session(engine="bitpacked", chunk_size=chunk) as session:
        assert session.passes_test_set(network, words).passed == expected
    assert chunked_words_all_sorted(
        network, [], engine="bitpacked", config=config
    )


@pytest.mark.parametrize("n", [4, 6, 8])
def test_chunked_merger_matches(n):
    from repro.constructions import batcher_merging_network

    good = batcher_merging_network(n)
    assert session_verdict(good, "merger", strategy="binary", chunk_size=3)
    if good.size > 0:
        bad = good.without_comparator(0)
        assert session_verdict(
            bad, "merger", strategy="binary", chunk_size=3
        ) == session_verdict(bad, "merger", strategy="binary", engine="vectorized")


# ----------------------------------------------------------------------
# Sharded fault simulation: exact matrix reproduction
# ----------------------------------------------------------------------
@given(networks(min_lines=3, max_lines=6, max_size=10), odd_chunks)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fault_rows_independent_of_chunking(network, chunk):
    """Serial slices of the fault axis compose to the full matrix."""
    faults = enumerate_single_faults(network)
    vectors = sorting_binary_test_set(network.n_lines)
    with Session(engine="bitpacked") as session:
        full = session.fault_matrix(network, faults, vectors).matrix
        stitched = np.zeros_like(full)
        for start, stop in chunk_spans(len(faults), max(1, chunk % 7)):
            stitched[start:stop] = session.fault_matrix(
                network, faults[start:stop], vectors
            ).matrix
    assert np.array_equal(stitched, full)


@pytest.mark.parametrize("engine", ["bitpacked", "vectorized"])
@pytest.mark.parametrize("criterion", ["specification", "reference"])
def test_sharded_matrix_is_bit_identical(engine, criterion):
    network = batcher_sorting_network(8)
    faults = enumerate_single_faults(network)
    vectors = [tuple(int(v) for v in w) for w in sorting_binary_test_set(8)]
    serial = session_matrix(network, faults, vectors, criterion, engine=engine)
    sharded = _fault_detection_matrix_impl(
        network,
        faults,
        vectors,
        criterion=criterion,
        engine=engine,
        config=ExecutionConfig(max_workers=2),
    )
    assert sharded.dtype == np.bool_
    assert np.array_equal(sharded, serial)


def test_extended_universe_and_array_vectors_match():
    """The parallel-smoke workload: all-stage line-stuck faults, vector array."""
    network = batcher_sorting_network(7)
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    tuples = sorting_binary_test_set(7)
    from repro.core.evaluation import unsorted_binary_words_array

    array = unsorted_binary_words_array(7)
    reference = session_matrix(network, faults, tuples, engine="vectorized")
    assert np.array_equal(
        session_matrix(network, faults, tuples, engine="bitpacked"), reference
    )
    assert np.array_equal(
        session_matrix(network, faults, array, engine="bitpacked"), reference
    )
    assert np.array_equal(
        session_matrix(network, faults, array, engine="vectorized"), reference
    )
    sharded = _fault_detection_matrix_impl(
        network,
        faults,
        array,
        engine="bitpacked",
        config=ExecutionConfig(max_workers=2),
    )
    assert np.array_equal(sharded, reference)


def test_sharded_matrix_empty_edges():
    network = batcher_sorting_network(4)
    faults = enumerate_single_faults(network)
    config = ExecutionConfig(max_workers=2)
    # Empty test-vector batch: no pool is spun up, shape is preserved.
    empty_vectors = _fault_detection_matrix_impl(
        network, faults, [], engine="bitpacked", config=config
    )
    assert empty_vectors.shape == (len(faults), 0)
    # Empty / singleton fault axis: served by the serial path.
    vectors = sorting_binary_test_set(4)
    assert _fault_detection_matrix_impl(
        network, [], vectors, engine="bitpacked", config=config
    ).shape == (0, len(vectors))
    single = _fault_detection_matrix_impl(
        network, faults[:1], vectors, engine="bitpacked", config=config
    )
    reference = session_matrix(
        network, faults[:1], vectors, engine="bitpacked"
    )
    assert np.array_equal(single, reference)
    # Direct sharded call with an empty fault list.
    assert sharded_fault_detection_matrix(
        network,
        [],
        [tuple(int(v) for v in w) for w in vectors],
        engine="bitpacked",
        config=config,
    ).shape == (0, len(vectors))


# ----------------------------------------------------------------------
# Real process pools (kept few: each spins up workers)
# ----------------------------------------------------------------------
def test_parallel_streamed_sorter_and_counterexample():
    config = ExecutionConfig(max_workers=2, chunk_size=64)
    good = batcher_sorting_network(9)
    assert _is_sorter_impl(
        good, strategy="binary", engine="bitpacked", config=config
    )
    bad = good.without_comparator(7)
    rank = streamed_sorting_failure_rank(
        bad, restrict_to_unsorted_inputs=True, config=config
    )
    assert rank is not None
    assert rank_to_word(rank, 9) == vectorized_first_failure(bad, "testset")
    assert find_sorting_counterexample(bad) == rank_to_word(rank, 9)


def test_parallel_chunked_words():
    config = ExecutionConfig(max_workers=2, chunk_size=50)
    network = batcher_sorting_network(8)
    words = sorting_binary_test_set(8)
    assert _network_passes_test_set_impl(
        network, words, engine="bitpacked", config=config
    )
    assert not _network_passes_test_set_impl(
        network.without_comparator(0), words, engine="bitpacked", config=config
    )


def test_streamed_selector_parallel():
    config = ExecutionConfig(max_workers=2, chunk_size=64)
    network = batcher_sorting_network(9)
    assert streamed_is_selector(network, 4, config=config)


def test_unsorted_blocks_has_clean_padding():
    batch = np.asarray([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.int8)
    packed = pack_batch(batch)
    mask = packed_unsorted_blocks(packed)
    assert np.array_equal(
        unpack_bits(mask, packed.num_words), np.array([True, False, True])
    )
    # Padding bits beyond num_words stay zero.
    assert int(mask[0]) >> 3 == 0
    arena = PlaneArena(packed.n_lines, packed.n_blocks, packed.planes.dtype)
    violations = packed_selection_violation_blocks(
        packed,
        packed,
        2,
        restrict_to_test_words=True,
        arena=arena,
        out=arena.plane(arena.acquire()),
    )
    assert int(violations[0]) >> 3 == 0
