"""Scratch-plane arena: reuse semantics, bit-identity, stats accounting.

The guarantee of the arena: the allocation-free pruned engine
(`PlaneArena` + ``out=`` ufuncs) is bit-identical to the unpruned path and
the vectorized engine — across repeated calls sharing one arena, mixed
fault models, odd chunk sizes and the 2-D shard grid — and every pruned
route (serial, streamed, sharded, cached) counts the same pruning work.
Also the regression tests for the `LineStuckFault` pruning-stats baseline
off-by-one and the empty-error-dict detection row.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import session_matrix

from repro.api import Session
from repro.cache import ResultCache
from repro.constructions import batcher_sorting_network
from repro.core import ComparatorNetwork
from repro.core.evaluation import all_binary_words_array
from repro.core.scratch import PlaneArena, comparator_scratch, shared_arena
from repro.faults import (
    CubeVectors,
    LineStuckFault,
    ReversedComparatorFault,
    SimulationStats,
    StuckPassFault,
    StuckSwapFault,
    enumerate_single_faults,
)
from repro.faults.simulation import (
    _fault_detection_any_impl,
    _fault_detection_matrix_impl,
)
from repro.parallel import ExecutionConfig


@st.composite
def networks(draw, min_lines: int = 2, max_lines: int = 7, max_size: int = 12):
    n = draw(st.integers(min_lines, max_lines))
    size = draw(st.integers(0, max_size))
    comparators = []
    for _ in range(size):
        low = draw(st.integers(0, n - 2))
        high = draw(st.integers(low + 1, n - 1))
        comparators.append((low, high))
    return ComparatorNetwork.from_pairs(n, comparators)


odd_chunks = st.sampled_from([1, 3, 7, 63, 64, 65, 100])
criteria = st.sampled_from(["specification", "reference"])


# ----------------------------------------------------------------------
# PlaneArena mechanics
# ----------------------------------------------------------------------
def test_arena_slot_accounting():
    arena = PlaneArena(4, 8)
    assert arena.store.shape == (12, 8)
    total_free = len(arena._free)
    slot = arena.acquire()
    assert len(arena._free) == total_free - 1
    arena.plane(slot)[...] = 7
    arena.set_error(2, slot)
    assert arena.err_slot == {2: slot}
    assert list(arena.error_planes()) == [2]
    assert np.all(arena.error_planes()[2] == 7)
    # Replacing an error recycles the old slot.
    other = arena.acquire()
    arena.set_error(2, other)
    assert slot in arena._free
    arena.clear_error(2)
    assert arena.err_slot == {}
    assert len(arena._free) == total_free
    arena.clear_error(2)  # idempotent
    assert len(arena._free) == total_free


def test_arena_reset_restores_all_slots():
    arena = PlaneArena(3, 4)
    for line in range(3):
        arena.set_error(line, arena.acquire())
    arena.acquire()
    arena.reset()
    assert arena.err_slot == {}
    assert len(arena._free) == arena.store.shape[0]
    assert np.all(arena.zero == 0)


def test_shared_arena_is_cached_per_geometry():
    a = shared_arena(6, 32)
    b = shared_arena(6, 32)
    assert a is b
    c = shared_arena(6, 64)
    assert c is not a
    scratch = comparator_scratch(32)
    assert scratch.shape == (32,)
    assert scratch is comparator_scratch(32)


# ----------------------------------------------------------------------
# Arena reuse is bit-identical (tentpole cross-check)
# ----------------------------------------------------------------------
@given(networks(), criteria, odd_chunks)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_shared_arena_reuse_bit_identical(network, criterion, chunk):
    """Repeated calls on this thread's shared arenas, mixed fault models
    and odd chunks reproduce the vectorized matrix, as does the unpruned
    path."""
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    vectors = all_binary_words_array(network.n_lines)
    reference = session_matrix(
        network, faults, vectors, criterion, engine="vectorized"
    )
    config = ExecutionConfig(max_workers=1, chunk_size=chunk)
    # Later calls (and the streamed tail chunk) reuse the arenas the
    # first call left in the thread's cache.
    for _ in range(2):
        pruned = _fault_detection_matrix_impl(
            network, faults, vectors, criterion=criterion, engine="bitpacked",
            config=config, prune=True,
        )
        assert np.array_equal(pruned, reference)
    unpruned = _fault_detection_matrix_impl(
        network, faults, vectors, criterion=criterion, engine="bitpacked",
        config=config, prune=False,
    )
    assert np.array_equal(unpruned, reference)
    detected = _fault_detection_any_impl(
        network, faults, CubeVectors(network.n_lines), criterion=criterion,
        engine="bitpacked", config=config, prune=True,
    )
    assert np.array_equal(detected, reference.any(axis=1))


@given(networks(min_lines=3), criteria)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_pruned_routes_agree_on_stats(network, criterion):
    """The serial, streamed and cached pruned routes count the exact same
    pruning work (the sharded route: the grid test below)."""
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    vectors = all_binary_words_array(network.n_lines)
    cache = ResultCache()
    routes = {
        "serial": {},
        # One chunk as wide as the batch: the streamed loop, same blocks.
        "streamed": {"config": ExecutionConfig(chunk_size=len(vectors))},
        "cached-cold": {"cache": cache},
        "cached-warm": {"cache": cache},
    }
    matrices, counts = {}, {}
    for name, knobs in routes.items():
        stats = SimulationStats()
        matrices[name] = _fault_detection_matrix_impl(
            network, faults, vectors, criterion=criterion, engine="bitpacked",
            prune=True, stats=stats, **knobs,
        )
        counts[name] = stats.counts()
    assert cache.stats().verdict_hits == 1
    for name in routes:
        assert np.array_equal(matrices[name], matrices["serial"]), name
        assert counts[name] == counts["serial"], name


def test_grid_sharded_matrix_bit_identical():
    """The 2-D (faults × vector-chunks) process grid stays bit-identical to
    the serial vectorised engine and counts the serial streamed route's
    pruning work."""
    network = batcher_sorting_network(7)
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    reference = session_matrix(
        network, faults, all_binary_words_array(7), engine="vectorized"
    )
    streamed_stats = SimulationStats()
    streamed = _fault_detection_matrix_impl(
        network, faults, CubeVectors(7), engine="bitpacked",
        config=ExecutionConfig(max_workers=1, chunk_size=48), prune=True,
        stats=streamed_stats,
    )
    config = ExecutionConfig(max_workers=2, chunk_size=48)
    grid_stats = SimulationStats()
    grid = _fault_detection_matrix_impl(
        network, faults, CubeVectors(7), engine="bitpacked", config=config,
        prune=True, stats=grid_stats,
    )
    assert np.array_equal(streamed, reference)
    assert np.array_equal(grid, reference)
    assert grid_stats.counts() == streamed_stats.counts()
    detected = _fault_detection_any_impl(
        network, faults, CubeVectors(7), engine="bitpacked", config=config,
        prune=True,
    )
    assert np.array_equal(detected, reference.any(axis=1))


# ----------------------------------------------------------------------
# Pruning-stats baseline regression (the LineStuckFault off-by-one)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_size", [None, 64])
def test_stats_baseline_per_fault_model(chunk_size):
    """`evaluated + pruned` equals the analytic no-pruning baseline for
    every fault model, single-shot and streamed — the LineStuckFault
    baseline used to be off by one stage (`size - max(stage - 1, 0)` for a
    loop that can evaluate at most `size - stage` stages), inflating
    `prune_ratio`."""
    network = batcher_sorting_network(4)
    size = network.size
    vectors = all_binary_words_array(4)
    n_blocks = 1  # 16 words -> one uint64 block
    cases = [
        (StuckPassFault(2), (size - 3) * n_blocks),
        (StuckSwapFault(2), (size - 3) * n_blocks),
        (ReversedComparatorFault(2), (size - 2) * n_blocks),
        (LineStuckFault(line=1, stage=0, value=1), size * n_blocks),
        (LineStuckFault(line=1, stage=3, value=0), (size - 3) * n_blocks),
        (LineStuckFault(line=1, stage=size, value=1), 0),
    ]
    with Session(engine="bitpacked", chunk_size=chunk_size) as session:
        for fault, baseline in cases:
            stats = session.fault_matrix(network, [fault], vectors).stats
            assert stats.total_stage_blocks == baseline, fault
            assert (
                stats.evaluated_stage_blocks + stats.pruned_stage_blocks
                == baseline
            )


@pytest.mark.parametrize("chunk_size", [None, 64])
def test_never_converging_fault_reports_zero_pruned(chunk_size):
    """A stuck line that keeps every stage dirty evaluates the full suffix:
    nothing was pruned, so `pruned_stage_blocks` must be exactly 0."""
    network = ComparatorNetwork.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
    fault = LineStuckFault(line=0, stage=1, value=1)
    with Session(engine="bitpacked", chunk_size=chunk_size) as session:
        stats = session.fault_matrix(
            network, [fault], all_binary_words_array(2)
        ).stats
    assert stats.evaluated_stage_blocks == 2  # stages 1 and 2, one block
    assert stats.pruned_stage_blocks == 0
    assert stats.converged_faults == 0


# ----------------------------------------------------------------------
# A converged run gets the reference's own row, stacked or one by one
# ----------------------------------------------------------------------
@pytest.mark.parametrize("criterion", ["specification", "reference"])
def test_converged_run_gets_the_reference_row(criterion):
    from repro.faults import StuckPassFault
    from repro.faults.simulation import (
        PrefixStates,
        _detection_row,
        _pack_vectors,
        _row_from_errors,
        _run_spec,
        _stack_rows,
        _sweep_stack,
    )

    # Not a sorter (its own rows are not all-false), and the repeated
    # last comparator is redundant: sticking it converges at once.
    network = ComparatorNetwork.from_pairs(4, [(0, 1), (2, 3), (1, 2), (1, 2)])
    packed = _pack_vectors(network, all_binary_words_array(4))
    prefix = PrefixStates.build(network, packed)
    reference = prefix.reference()
    arena = PlaneArena(4, packed.n_blocks)
    expected = _detection_row(reference, reference, criterion, arena=arena)
    assert expected.any() == (criterion == "specification")

    stack = arena.fault_stack(1)
    spec = _run_spec(network, StuckPassFault(network.size - 1))
    _sweep_stack(prefix, [spec], stack, arena)
    assert not stack.dirty[:, :1].any()
    assert np.array_equal(_stack_rows(reference, stack, 1, criterion)[0], expected)
    # The one-fault kernel's form of a converged run: no error planes.
    row = _row_from_errors(reference, {}, criterion, reference.pad_mask(), arena)
    assert np.array_equal(row, expected)
