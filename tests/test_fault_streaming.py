"""Streamed cube-axis fault simulation and dominated-state pruning.

The load-bearing guarantee of this PR: the pruned, streamed and 2-D-sharded
fault simulators are *bit-identical* to the serial unpruned engines — across
random networks (including reversed comparators), both detection criteria,
odd chunk sizes and the (faults × vector-chunks) work grid.  Hypothesis
drives the serial cross-checks (cheap); a small number of deterministic
tests exercise the real process pools.
"""

from __future__ import annotations

from collections import Counter
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import (
    criteria,
    extended_universes,
    networks,
    odd_chunks,
    session_matrix,
)

from repro.api import Session
from repro.cache import ResultCache
from repro.constructions import batcher_sorting_network
from repro.core.evaluation import all_binary_words_array, unsorted_binary_words_array
from repro.exceptions import FaultModelError
from repro.faults import (
    CubeVectors,
    LineStuckFault,
    SimulationStats,
    enumerate_single_faults,
)
import repro.faults.simulation as simulation
from repro.faults.simulation import (
    _fault_detection_any_impl,
    _fault_detection_matrix_impl,
)
from repro.parallel import ExecutionConfig, WorkerPool, grid_tiles
import repro.parallel.fault_shard as fault_shard


# ----------------------------------------------------------------------
# Pruned vs unpruned vs serial reference: bit-identical
# ----------------------------------------------------------------------
@given(networks(), criteria, odd_chunks)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_pruned_and_streamed_matrices_match_serial(network, criterion, chunk):
    """The satellite guarantee: pruned == unpruned == vectorised, serial and
    streamed, on random networks, both criteria, odd chunk sizes."""
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    vectors = all_binary_words_array(network.n_lines)
    reference = session_matrix(
        network, faults, vectors, criterion, engine="vectorized"
    )
    unpruned = session_matrix(
        network, faults, vectors, criterion, engine="bitpacked", prune=False
    )
    pruned = session_matrix(
        network, faults, vectors, criterion, engine="bitpacked", prune=True
    )
    assert np.array_equal(unpruned, reference)
    assert np.array_equal(pruned, reference)
    config = ExecutionConfig(max_workers=1, chunk_size=chunk)
    for prune in (False, True):
        streamed = session_matrix(
            network, faults, CubeVectors(network.n_lines), criterion,
            engine="bitpacked", chunk_size=chunk, prune=prune,
        )
        assert np.array_equal(streamed, reference)
        detected = _fault_detection_any_impl(
            network, faults, CubeVectors(network.n_lines),
            criterion=criterion, engine="bitpacked", config=config, prune=prune,
        )
        assert np.array_equal(detected, reference.any(axis=1))


@given(networks(min_lines=3), criteria, odd_chunks)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_streamed_explicit_vectors_match(network, criterion, chunk):
    """Explicit vector batches stream in word chunks, matrix and any-form."""
    faults = enumerate_single_faults(network)
    vectors = unsorted_binary_words_array(network.n_lines)
    if vectors.shape[0] == 0:
        return
    reference = session_matrix(
        network, faults, vectors, criterion, engine="vectorized"
    )
    streamed = session_matrix(
        network, faults, vectors, criterion, engine="bitpacked",
        chunk_size=chunk,
    )
    assert np.array_equal(streamed, reference)
    detected = _fault_detection_any_impl(
        network, faults, vectors, criterion=criterion, engine="bitpacked",
        config=ExecutionConfig(max_workers=1, chunk_size=chunk),
    )
    assert np.array_equal(detected, reference.any(axis=1))


def test_cube_vectors_equivalent_to_explicit_cube():
    """CubeVectors(n) is column-for-column the explicit cube array."""
    network = batcher_sorting_network(6)
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    explicit = session_matrix(
        network, faults, all_binary_words_array(6), engine="bitpacked"
    )
    lazy = session_matrix(network, faults, CubeVectors(6), engine="bitpacked")
    assert np.array_equal(lazy, explicit)
    # Non-bit-packed engines expand the cube and agree as well.
    assert np.array_equal(
        session_matrix(network, faults, CubeVectors(6), engine="vectorized"),
        explicit,
    )


def test_cube_vectors_validation():
    with pytest.raises(FaultModelError):
        CubeVectors(-1)
    network = batcher_sorting_network(4)
    faults = enumerate_single_faults(network)
    with pytest.raises(FaultModelError):
        session_matrix(network, faults, CubeVectors(5), engine="bitpacked")
    assert len(CubeVectors(10)) == 1024


# ----------------------------------------------------------------------
# The 2-D (faults × vector-chunks) shard grid
# ----------------------------------------------------------------------
def test_grid_tiles_cover_every_fault_chunk_pair():
    assert grid_tiles(0, 4, 2) == []
    assert grid_tiles(5, 0, 2) == []
    for num_faults, num_chunks, workers in ((7, 3, 2), (100, 1, 4), (5, 9, 3)):
        tiles = grid_tiles(num_faults, num_chunks, workers)
        seen = set()
        for chunk_index, start, stop in tiles:
            assert 0 <= chunk_index < num_chunks
            for f in range(start, stop):
                key = (chunk_index, f)
                assert key not in seen
                seen.add(key)
        assert len(seen) == num_faults * num_chunks
        # Chunk-major order: workers reuse their cached chunk prefixes.
        chunk_order = [tile[0] for tile in tiles]
        assert chunk_order == sorted(chunk_order)


@pytest.mark.parametrize("criterion", ["specification", "reference"])
@pytest.mark.parametrize("prune", [False, True])
def test_grid_sharded_matrix_is_bit_identical(criterion, prune):
    """Real process pool over the 2-D grid: cube chunks × fault slices."""
    network = batcher_sorting_network(7)
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    reference = session_matrix(
        network, faults, all_binary_words_array(7), criterion,
        engine="vectorized",
    )
    config = ExecutionConfig(max_workers=2, chunk_size=48)
    stats = SimulationStats()
    grid = _fault_detection_matrix_impl(
        network, faults, CubeVectors(7), criterion=criterion,
        engine="bitpacked", config=config, prune=prune, stats=stats,
    )
    assert np.array_equal(grid, reference)
    if prune:
        assert stats.faults > 0
    detected = _fault_detection_any_impl(
        network, faults, CubeVectors(7), criterion=criterion,
        engine="bitpacked", config=config, prune=prune,
    )
    assert np.array_equal(detected, reference.any(axis=1))


def test_grid_sharded_explicit_vectors():
    """Explicit batches above the chunk size stream through the grid too."""
    network = batcher_sorting_network(7)
    faults = enumerate_single_faults(network)
    vectors = all_binary_words_array(7)
    reference = session_matrix(network, faults, vectors, engine="vectorized")
    config = ExecutionConfig(max_workers=2, chunk_size=32)
    assert config.wants_vector_chunking(vectors.shape[0])
    grid = _fault_detection_matrix_impl(
        network, faults, vectors, engine="bitpacked", config=config
    )
    assert np.array_equal(grid, reference)
    tuples = [tuple(int(v) for v in row) for row in vectors]
    grid_tuples = _fault_detection_matrix_impl(
        network, faults, tuples, engine="bitpacked", config=config
    )
    assert np.array_equal(grid_tuples, reference)


def test_wants_vector_chunking_thresholds():
    assert not ExecutionConfig().wants_vector_chunking(10**9)
    assert ExecutionConfig(chunk_size=64).wants_vector_chunking(65)
    assert not ExecutionConfig(chunk_size=64).wants_vector_chunking(64)
    assert ExecutionConfig(max_workers=2).wants_vector_chunking(2**21)


# ----------------------------------------------------------------------
# Pruning counters
# ----------------------------------------------------------------------
def test_prune_counter_monotone_in_network_size():
    """Regression: pruned stage-blocks grow with the device size — a larger
    sorter exposes strictly more dominated suffix work, so a counter
    regression (e.g. skipped accounting) shows up as non-monotonicity."""
    previous = -1
    for n in (4, 6, 8, 10):
        network = batcher_sorting_network(n)
        faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
        with Session(engine="bitpacked", prune=True) as session:
            stats = session.fault_matrix(
                network, faults, all_binary_words_array(n)
            ).stats
        assert stats.pruned_stage_blocks > previous
        assert stats.total_stage_blocks == (
            stats.evaluated_stage_blocks + stats.pruned_stage_blocks
        )
        assert 0.0 < stats.prune_ratio < 1.0
        assert stats.faults == len(faults)
        previous = stats.pruned_stage_blocks


def test_fault_dropping_counts_and_identical_verdicts():
    """Later chunks drop already-detected faults without changing verdicts."""
    network = batcher_sorting_network(8)
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    config = ExecutionConfig(chunk_size=64)  # 4 chunks at n=8
    stats = SimulationStats()
    detected = _fault_detection_any_impl(
        network, faults, CubeVectors(8), engine="bitpacked", config=config,
        prune=True, stats=stats,
    )
    reference = _fault_detection_any_impl(
        network, faults, CubeVectors(8), engine="bitpacked", config=config,
        prune=False,
    )
    assert np.array_equal(detected, reference)
    assert stats.dropped_faults > 0


def test_stats_merge_counts_roundtrip():
    a = SimulationStats(faults=2, converged_faults=1, dropped_faults=3,
                        evaluated_stage_blocks=10, pruned_stage_blocks=30)
    b = SimulationStats()
    b.merge_counts(a.counts())
    assert b == a
    assert a.prune_ratio == 0.75


# ----------------------------------------------------------------------
# Coverage helpers on the streamed cube
# ----------------------------------------------------------------------
def test_coverage_report_on_cube_matches_explicit():
    network = batcher_sorting_network(6)
    faults = enumerate_single_faults(network)
    with Session(engine="bitpacked") as session:
        explicit = session.fault_coverage(
            network, faults, all_binary_words_array(6)
        )
    with Session(engine="bitpacked", chunk_size=16) as session:
        streamed = session.fault_coverage(network, faults, CubeVectors(6))
    assert streamed.coverage == explicit.coverage
    assert streamed.detected_faults == explicit.detected_faults
    assert streamed.by_kind == explicit.by_kind
    assert streamed.vectors_used == 64


# ----------------------------------------------------------------------
# Line stuck-at twins: one kernel run per class, invisible on every route
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shard_pool():
    """One persistent two-process pool for the sharded coverage route."""
    pool = WorkerPool(2)
    yield pool
    pool.close()


def _any_route(
    network, faults, vectors, criterion, *, engine="bitpacked", prune=True,
    config=None, cache=None,
):
    """``(verdicts, counters)`` of one any-reduction (coverage) route."""
    stats = SimulationStats()
    detected = _fault_detection_any_impl(
        network, faults, vectors, criterion=criterion, engine=engine,
        config=config, prune=prune, stats=stats, cache=cache,
    )
    return detected, stats.counts()


def _one_fault_counts(network, faults, vectors, criterion, config=None):
    """The counters summed over one call per fault of the list."""
    total = SimulationStats()
    for fault, times in Counter(faults).items():
        _, counts = _any_route(network, [fault], vectors, criterion, config=config)
        for _ in range(times):
            total.merge_counts(counts)
    return total.counts()


def _report(report):
    return (report.detected_faults, report.coverage, dict(report.by_kind))


@given(networks(max_lines=6, max_size=10), criteria, odd_chunks, st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_twin_sharing_is_invisible_on_every_coverage_route(
    shard_pool, network, criterion, chunk, data
):
    """Shuffled stage-extended universes with repeats: the bit-packed
    coverage equals the per-fault unpruned and vectorized oracles on the
    serial, sharded, cached and streamed routes, and every route reports
    the counters of one call per fault under its own chunking."""
    faults = data.draw(extended_universes(network), label="universe")
    vectors = unsorted_binary_words_array(network.n_lines)
    expected, _ = _any_route(network, faults, vectors, criterion, prune=False)
    vectorized, _ = _any_route(
        network, faults, vectors, criterion, engine="vectorized"
    )
    assert np.array_equal(vectorized, expected)
    store = ResultCache()
    single_chunk = {
        "serial": _any_route(network, faults, vectors, criterion),
        "sharded": _any_route(
            network, faults, vectors, criterion,
            config=ExecutionConfig(max_workers=2, pool=shard_pool),
        ),
        "cached": _any_route(network, faults, vectors, criterion, cache=store),
        "cached-warm": _any_route(
            network, faults, vectors, criterion, cache=store
        ),
    }
    one_fault = _one_fault_counts(network, faults, vectors, criterion)
    for route, (detected, counts) in single_chunk.items():
        assert np.array_equal(detected, expected), route
        assert counts == one_fault, route
    streamed = ExecutionConfig(max_workers=1, chunk_size=chunk)
    detected, counts = _any_route(
        network, faults, vectors, criterion, config=streamed
    )
    assert np.array_equal(detected, expected)
    assert counts == _one_fault_counts(
        network, faults, vectors, criterion, config=streamed
    )
    reports = []
    for knobs in (
        {"engine": "bitpacked"},
        {"engine": "bitpacked", "prune": False},
        {"engine": "vectorized"},
    ):
        with Session(**knobs) as session:
            reports.append(_report(session.fault_coverage(
                network, faults, vectors, criterion=criterion
            )))
    assert reports[0] == reports[1] == reports[2]


def test_twin_classes_run_the_kernel_once(monkeypatch):
    """The optimisation pin: one chunk of Batcher(8)'s stage-extended
    universe runs the pruned kernel once per comparator fault and once per
    line stuck-at class, 3·size + 2(2·size + n) stacked runs instead of
    one per fault, while the counters still report every fault."""
    network = batcher_sorting_network(8)
    size, n = network.size, network.n_lines
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    assert len(faults) == 3 * size + 2 * n * (size + 1)
    kernel = simulation._sweep_stack
    calls = []

    def counting(prefix, specs, *args):
        calls.extend(specs)
        return kernel(prefix, specs, *args)

    monkeypatch.setattr(simulation, "_sweep_stack", counting)
    stats = SimulationStats()
    _fault_detection_any_impl(
        network, faults, unsorted_binary_words_array(n), engine="bitpacked",
        stats=stats,
    )
    assert stats.planned_grid == (1, 1)
    assert len(calls) == 3 * size + 2 * (2 * size + n)
    assert stats.faults == len(faults)
    assert stats.dropped_faults == 0


@pytest.mark.parametrize(
    "bad, message",
    [
        (LineStuckFault(8, 1, 3), "line 8 out of range for 8 lines"),
        (LineStuckFault(-1, 0, 0), "line -1 out of range for 8 lines"),
        (
            LineStuckFault(2, 0, 20),
            "stage 20 out of range for a network of size 19",
        ),
        (
            LineStuckFault(2, 1, -1),
            "stage -1 out of range for a network of size 19",
        ),
    ],
)
def test_out_of_range_line_faults_still_raise(bad, message):
    """A stuck line outside the device gets no twin class: it reaches the
    kernel and raises there, also between valid twins of its line."""
    network = batcher_sorting_network(8)
    assert network.size == 19
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    faults.insert(len(faults) - 5, bad)
    with pytest.raises(FaultModelError, match=re.escape(message)):
        _fault_detection_any_impl(
            network, faults, unsorted_binary_words_array(8),
            engine="bitpacked",
        )


def test_sharded_coverage_shares_a_verdict_vector_not_a_matrix(monkeypatch):
    """The fault-axis shard of a coverage run publishes a (F,) verdict
    vector that the workers reduce into; the matrix route still publishes
    the F × V matrix."""
    network = batcher_sorting_network(8)
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    vectors = unsorted_binary_words_array(8)
    create = fault_shard.create_shared_array
    shapes = []

    def recording(shape, dtype):
        shapes.append((tuple(shape), np.dtype(dtype)))
        return create(shape, dtype)

    monkeypatch.setattr(fault_shard, "create_shared_array", recording)
    with Session(engine="bitpacked", workers=2) as session:
        sharded = session.fault_coverage(network, faults, vectors)
        verdict_shapes = [s for s, dtype in shapes if dtype == np.bool_]
        del shapes[:]
        session.fault_matrix(network, faults, vectors)
        matrix_shapes = [s for s, dtype in shapes if dtype == np.bool_]
    assert verdict_shapes == [(len(faults),)]
    assert matrix_shapes == [(len(faults), len(vectors))]
    with Session(engine="bitpacked") as session:
        serial = session.fault_coverage(network, faults, vectors)
    assert _report(sharded) == _report(serial)
    assert sharded.stats.counts() == serial.stats.counts()
