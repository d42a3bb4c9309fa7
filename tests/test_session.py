"""Session facade: bit-identity across engines + resource reuse.

The load-bearing guarantee of the facade: every workload run through
:class:`repro.api.Session` returns results **bit-identical** to a
``Session(engine="scalar")`` (the oracle), across random networks, all
engines, pruning on and off, both criteria and streamed configurations
(hypothesis-driven).  A few deterministic tests pin the resource
behaviour — persistent pool reuse across calls, scratch reuse through the
thread's shared arenas, one Session driven from several threads, env-var
construction.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import mutate_one

from repro.api import Session
from repro.constructions import batcher_sorting_network
from repro.core import ComparatorNetwork
from repro.core.evaluation import unsorted_binary_words_array
from repro.core.scratch import FaultStack, PlaneArena
from repro.exceptions import ExecutionConfigError, TestSetError
from repro.faults import SimulationStats, enumerate_single_faults
from repro.faults.simulation import fault_detection_matrix
from repro.testsets import sorting_binary_test_set


@st.composite
def networks(draw, min_lines: int = 2, max_lines: int = 6, max_size: int = 10):
    n = draw(st.integers(min_lines, max_lines))
    size = draw(st.integers(0, max_size))
    comparators = []
    for _ in range(size):
        low = draw(st.integers(0, n - 2))
        high = draw(st.integers(low + 1, n - 1))
        comparators.append((low, high))
    return ComparatorNetwork.from_pairs(n, comparators)


engines = st.sampled_from(["scalar", "vectorized", "bitpacked"])
criteria = st.sampled_from(["specification", "reference"])


# ----------------------------------------------------------------------
# Hypothesis equivalence: every engine vs the scalar Session
# ----------------------------------------------------------------------
@given(networks(), engines, st.sampled_from(["binary", "testset"]))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_verify_matches_scalar_session(network, engine, strategy):
    with Session(engine="scalar") as oracle:
        expected = oracle.verify(network, "sorter", strategy=strategy).verdict
    with Session(engine=engine) as session:
        result = session.verify(network, "sorter", strategy=strategy)
    assert result.verdict == expected
    assert bool(result) == expected
    assert result.execution.engine_effective == engine


@given(networks(), engines)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_passes_test_set_matches_scalar_session(network, engine):
    words = sorting_binary_test_set(network.n_lines)
    with Session(engine="scalar") as oracle:
        expected = oracle.passes_test_set(network, words).passed
    with Session(engine=engine) as session:
        result = session.passes_test_set(network, words)
    assert result.passed == expected
    assert result.vectors_used == len(words)


@pytest.mark.parametrize(
    ("words", "count"),
    [
        pytest.param(np.array([1, 0, 1, 0]), 1, id="one-word-array"),
        pytest.param([1, 0, 1, 0], 1, id="one-word-list"),
        pytest.param(np.array([[1, 0, 1, 0], [0, 1, 1, 0]]), 2, id="two-rows"),
        pytest.param(np.array([], dtype=np.int64), 0, id="empty-array"),
    ],
)
def test_passes_test_set_counts_the_words_it_applies(words, count):
    """A flat sequence of values is one word: ``vectors_used`` and the
    root span's ``vectors`` count the words applied, not the values."""
    with Session() as session:
        result = session.passes_test_set(batcher_sorting_network(4), words)
    assert result.passed
    assert result.vectors_used == count
    assert result.execution.trace.root.meta["vectors"] == count


@given(networks(), engines, criteria, st.booleans())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fault_matrix_matches_scalar_session(network, engine, criterion, prune):
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    vectors = sorting_binary_test_set(network.n_lines)
    if not vectors:
        return
    with Session(engine="scalar") as oracle:
        expected = oracle.fault_matrix(
            network, faults, vectors, criterion=criterion
        ).matrix
    with Session(engine=engine, prune=prune) as session:
        result = session.fault_matrix(network, faults, vectors, criterion=criterion)
    assert np.array_equal(result.matrix, expected)
    assert result.num_faults == len(faults)
    assert result.num_vectors == len(vectors)


@given(networks(), criteria, st.sampled_from([1, 7, 64, 100]))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_streamed_coverage_matches_scalar_session(network, criterion, chunk):
    """Chunked (streamed) bit-packed runs agree with the scalar oracle."""
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    vectors = sorting_binary_test_set(network.n_lines)
    if not vectors:
        return
    with Session(engine="scalar") as oracle:
        expected = oracle.fault_coverage(
            network, faults, vectors, criterion=criterion
        )
    with Session(engine="bitpacked", chunk_size=chunk) as session:
        result = session.fault_coverage(
            network, faults, vectors, criterion=criterion
        )
    assert result.coverage == expected.coverage
    assert result.detected_faults == expected.detected_faults
    assert result.by_kind == expected.by_kind
    assert result.vectors_used == expected.vectors_used


@given(networks())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_session_and_free_function_agree(network):
    """A Session call and the free function run the same kernel on the
    same scratch source: equal matrices and equal counters."""
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    vectors = sorting_binary_test_set(network.n_lines)
    if not vectors:
        return
    with Session() as session:
        result = session.fault_matrix(network, faults, vectors)
    stats = SimulationStats()
    matrix = fault_detection_matrix(network, faults, vectors, stats=stats)
    assert np.array_equal(result.matrix, matrix)
    assert result.stats.counts() == stats.counts()


@pytest.fixture(scope="module")
def sorter_mutants() -> dict[int, tuple]:
    """``n -> (network, extended single-fault universe, Theorem 2.2
    words)`` of a Batcher(n) mutant with one comparator reversed."""
    mutants = {}
    for n in (12, 14, 16):
        network = mutate_one(batcher_sorting_network(n), n // 2)
        faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
        mutants[n] = (network, faults, unsorted_binary_words_array(n))
    return mutants


def test_one_session_serves_several_threads(sorter_mutants):
    """An uncached serial Session may be called from several threads at
    once: every call takes its scratch from its own thread's arenas, so
    each answers exactly as a serial call does."""

    def outcome(session: Session, n: int) -> tuple:
        report = session.fault_coverage(*sorter_mutants[n])
        return report.detected_faults, report.stats.counts()

    sizes = (12, 14, 12, 14)
    outcomes: dict[int, list[tuple]] = {}
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Session() as session:
            expected = {n: outcome(session, n) for n in set(sizes)}
            start = threading.Barrier(4, timeout=30)

            def run(index: int) -> None:
                order = sizes[index % 2 :] + sizes[: index % 2]
                start.wait()
                outcomes[index] = [(n, outcome(session, n)) for n in order]

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch_interval)
    assert sorted(outcomes) == [0, 1, 2, 3]
    for calls in outcomes.values():
        assert [got for _, got in calls] == [expected[n] for n, _ in calls]


# ----------------------------------------------------------------------
# Resource reuse and lifecycle
# ----------------------------------------------------------------------
class TestSessionResources:
    def test_fault_calls_reuse_the_thread_arenas(self, monkeypatch, sorter_mutants):
        """A call on a geometry its thread has met allocates no arena and
        no fault stack, whichever geometries ran in between."""
        allocations: list[str] = []
        allocate, init_stack = PlaneArena._allocate, FaultStack.__init__

        def counted_allocate(arena, *args):
            allocations.append("arena")
            allocate(arena, *args)

        def counted_init_stack(stack, *args):
            allocations.append("stack")
            init_stack(stack, *args)

        monkeypatch.setattr(PlaneArena, "_allocate", counted_allocate)
        monkeypatch.setattr(FaultStack, "__init__", counted_init_stack)
        per_call: list[list[str]] = []

        def run() -> None:
            with Session() as session:
                for n in (16, 14, 16):
                    before = len(allocations)
                    session.fault_coverage(*sorter_mutants[n])
                    per_call.append(allocations[before:])

        # A fresh thread starts with an empty arena cache.
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(per_call) == 3
        assert per_call[0] and per_call[1]
        assert per_call[2] == []

    def test_serial_session_creates_no_pool(self, batcher8):
        with Session(engine="bitpacked") as session:
            session.verify(batcher8, "sorter")
            assert session._pool is None

    def test_parallel_session_reuses_one_pool(self, batcher8):
        faults = enumerate_single_faults(batcher8)
        vectors = sorting_binary_test_set(8)
        with Session(engine="bitpacked") as serial_session:
            serial = serial_session.fault_matrix(batcher8, faults, vectors).matrix
            reference = serial_session.fault_matrix(
                batcher8, faults, vectors, criterion="reference"
            ).matrix
        with Session(engine="bitpacked", workers=2) as session:
            first = session.fault_matrix(batcher8, faults, vectors)
            pool = session._pool
            assert pool is not None and pool.active
            second = session.fault_matrix(
                batcher8, faults, vectors, criterion="reference"
            )
            assert session._pool is pool
        assert not pool.active  # close() shut it down
        assert np.array_equal(first.matrix, serial)
        assert np.array_equal(second.matrix, reference)

    def test_parallel_verify_through_shared_pool(self, batcher8):
        with Session(engine="bitpacked", workers=2, chunk_size=64) as session:
            result = session.verify(batcher8, "sorter", strategy="binary")
            assert result.verdict
            assert session._pool is not None and session._pool.active
            assert result.execution.workers == 2
            assert result.execution.chunk_words == 64

    def test_grid_shape_reports_streamed_chunks(self, batcher8):
        faults = enumerate_single_faults(batcher8)
        with Session(engine="bitpacked", chunk_size=64) as session:
            from repro.faults import CubeVectors

            report = session.fault_coverage(batcher8, faults, CubeVectors(8))
        # 2**8 words in 64-word chunks -> 4 vector chunks, one fault shard.
        assert report.execution.grid_shape == (1, 4)

    def test_close_is_idempotent_and_session_reusable(self, batcher8):
        session = Session(engine="bitpacked", workers=2)
        faults = enumerate_single_faults(batcher8)
        vectors = sorting_binary_test_set(8)
        session.fault_matrix(batcher8, faults, vectors)
        session.close()
        session.close()
        # A later call simply respawns the pool.
        again = session.fault_matrix(batcher8, faults, vectors)
        assert again.matrix.shape == (len(faults), len(vectors))
        session.close()


class TestSessionConstruction:
    def test_default_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bitpacked")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "4096")
        monkeypatch.setenv("REPRO_PRUNE", "0")
        session = Session.default()
        assert session.engine == "bitpacked"
        assert session.workers == 3
        assert session.chunk_size == 4096
        assert session.prune is False

    def test_default_without_env_is_plain(self, monkeypatch):
        for name in (
            "REPRO_ENGINE",
            "REPRO_WORKERS",
            "REPRO_CHUNK_SIZE",
            "REPRO_PRUNE",
        ):
            monkeypatch.delenv(name, raising=False)
        session = Session.default()
        assert session.engine is None  # no pin: routed by value domain
        assert session.workers == 1
        assert session.chunk_size is None
        assert session.prune is True

    def test_invalid_knobs_raise(self):
        with pytest.raises(ExecutionConfigError):
            Session(workers=-1)
        with pytest.raises(ExecutionConfigError):
            Session(chunk_size=0)
        with pytest.raises(Exception):
            Session(engine="no-such-engine")

    def test_unknown_property_raises(self, batcher8):
        with Session() as session, pytest.raises(TestSetError):
            session.verify(batcher8, "router")

    def test_compare_test_sets_matches_individual_calls(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        sets = {
            "theorem": sorting_binary_test_set(4),
            "tiny": [(1, 0, 0, 0)],
        }
        with Session(engine="bitpacked") as session:
            combined = session.compare_test_sets(four_sorter, faults, sets)
            singles = {
                name: session.fault_coverage(four_sorter, faults, vectors)
                for name, vectors in sets.items()
            }
        assert combined.keys() == singles.keys()
        for name in sets:
            assert combined[name].coverage == singles[name].coverage
            assert combined[name].by_kind == singles[name].by_kind


def test_verify_selector_and_merger_match_scalar_session():
    from repro.constructions import batcher_merging_network, pruned_selection_network

    selector = pruned_selection_network(6, 2)
    merger = batcher_merging_network(6)
    with Session(engine="bitpacked") as session:
        sel = session.verify(selector, "selector", k=2)
        mer = session.verify(merger, "merger")
    with Session(engine="scalar") as oracle:
        assert sel.verdict == oracle.verify(selector, "selector", k=2).verdict
        assert mer.verdict == oracle.verify(merger, "merger").verdict
    assert sel.k == 2
    assert mer.k is None


def test_sharded_session_matches_serial_medium():
    """One real multi-worker run through the persistent pool, bit-identical."""
    device = batcher_sorting_network(10)
    faults = enumerate_single_faults(device, line_stuck_at_input_only=False)
    vectors = np.asarray(sorting_binary_test_set(10), dtype=np.int8)
    with Session(engine="bitpacked") as serial_session:
        serial = serial_session.fault_matrix(device, faults, vectors).matrix
    with Session(engine="bitpacked", workers=2) as session:
        first = session.fault_matrix(device, faults, vectors)
        second = session.fault_matrix(device, faults, vectors)
    assert np.array_equal(first.matrix, serial)
    assert np.array_equal(second.matrix, serial)
