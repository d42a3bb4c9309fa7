"""Fault dictionaries, diagnostic resolution and adaptive test ordering.

The diagnosis layer is pure post-processing of the detection matrix, so
its pinning test is simple: dictionaries built from any engine / cache
path must be identical (the matrices already are, per the differential
oracles in ``test_faults.py``), and the greedy adaptive order must reach
the same equivalence-class partition as the full vector set.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import criteria, networks

import repro.api as api
from repro.constructions import batcher_sorting_network
from repro.core import all_binary_words_array
from repro.faults import (
    FaultDictionary,
    adaptive_test_order,
    build_fault_dictionary,
    enumerate_model_faults,
    enumerate_single_faults,
    fault_dictionary_from_matrix,
    fault_detection_matrix,
)
from repro.testsets import sorting_binary_test_set


def partition_of(matrix: np.ndarray, columns) -> set[frozenset[int]]:
    """The fault partition induced by observing only ``columns``."""
    groups: dict[bytes, set[int]] = {}
    sub = matrix[:, list(columns)]
    for index, row in enumerate(sub):
        groups.setdefault(row.tobytes(), set()).add(index)
    return {frozenset(g) for g in groups.values()}


class TestFaultDictionary:
    def test_groups_rows_by_signature(self):
        matrix = np.array(
            [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=bool
        )
        faults = ["a", "b", "c", "d"]
        dictionary = fault_dictionary_from_matrix(faults, matrix)
        assert dictionary.num_faults == 4
        assert dictionary.num_classes == 3
        assert dictionary.classes[0] == ("a", "b")
        assert dictionary.lookup(np.array([1, 0, 0], dtype=bool)) == ("a", "b")
        assert dictionary.lookup(matrix[2].tobytes()) == ("c",)
        # Unknown signature: no candidates.
        assert dictionary.lookup(np.array([1, 1, 1], dtype=bool)) == ()

    def test_resolution_report(self):
        matrix = np.array(
            [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=bool
        )
        res = fault_dictionary_from_matrix(list("abcd"), matrix).resolution()
        assert res.num_faults == 4
        assert res.num_classes == 3
        assert res.singleton_classes == 2
        assert res.max_class_size == 2
        assert res.undetected_faults == 1  # "d" has the all-zero signature
        assert res.resolution == pytest.approx(3 / 4)
        assert not res.fully_resolved

    def test_empty_universe_is_fully_resolved(self):
        dictionary = fault_dictionary_from_matrix(
            [], np.zeros((0, 5), dtype=bool)
        )
        res = dictionary.resolution()
        assert res.resolution == 1.0
        assert res.fully_resolved

    @given(networks(min_lines=3, max_lines=6, max_size=10), criteria)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dictionary_identical_across_engines_and_cache(
        self, network, criterion
    ):
        faults = enumerate_single_faults(network)
        vectors = all_binary_words_array(network.n_lines)
        with api.Session(engine="vectorized") as oracle:
            baseline = oracle.diagnose(
                network, faults, vectors, criterion=criterion
            ).dictionary
        packed = build_fault_dictionary(network, faults, vectors, criterion=criterion)
        assert isinstance(baseline, FaultDictionary)
        assert packed.signatures == baseline.signatures
        assert packed.classes == baseline.classes
        with api.Session(engine="bitpacked", cache=True) as session:
            for _ in range(2):  # second round answered from the store
                result = session.diagnose(
                    network, faults, vectors, criterion=criterion
                )
                assert result.dictionary.signatures == baseline.signatures
                assert result.dictionary.classes == baseline.classes
                assert result.resolution == baseline.resolution()


class TestAdaptiveTestOrder:
    def test_reaches_the_full_partition_greedily(self):
        network = batcher_sorting_network(5)
        faults = enumerate_single_faults(network)
        vectors = all_binary_words_array(5)
        matrix = fault_detection_matrix(network, faults, vectors)
        order = adaptive_test_order(matrix)
        assert len(order) <= matrix.shape[1]
        assert len(set(order)) == len(order)
        full = partition_of(matrix, range(matrix.shape[1]))
        assert partition_of(matrix, order) == full
        # Greedy means strictly refining: each prefix splits further.
        sizes = [len(partition_of(matrix, order[: i + 1])) for i in range(len(order))]
        assert sizes == sorted(sizes)
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_degenerate_matrices(self):
        assert adaptive_test_order(np.zeros((0, 4), dtype=bool)) == []
        assert adaptive_test_order(np.zeros((3, 0), dtype=bool)) == []
        # No column splits anything: empty order.
        assert adaptive_test_order(np.ones((3, 4), dtype=bool)) == []

    @given(
        st.integers(2, 16),
        st.integers(1, 12),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_order_always_recovers_the_full_partition(
        self, num_faults, num_vectors, seed
    ):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(num_faults, num_vectors)).astype(bool)
        order = adaptive_test_order(matrix)
        assert partition_of(matrix, order) == partition_of(
            matrix, range(num_vectors)
        )


class TestSessionDiagnose:
    def test_result_fields_are_consistent(self):
        network = batcher_sorting_network(6)
        faults = enumerate_model_faults(network, "BridgingFault")
        vectors = sorting_binary_test_set(6)
        with api.Session(engine="bitpacked") as session:
            result = session.diagnose(network, faults, vectors)
        assert result.num_faults == len(faults)
        assert result.num_vectors == len(vectors)
        assert result.resolution is result.coverage.resolution
        assert result.coverage.total_faults == len(faults)
        assert result.dictionary.num_faults == len(faults)
        assert sum(len(c) for c in result.dictionary.classes) == len(faults)
        assert result.coverage.detected_faults == (
            len(faults) - result.resolution.undetected_faults
        )
        assert result.execution.seconds >= 0.0
        assert set(result.test_order) <= set(range(len(vectors)))

    def test_coverage_report_matches_fault_coverage_path(self):
        """``diagnose`` reports the same detection-side numbers as the
        constant-memory ``fault_coverage`` workload."""
        network = batcher_sorting_network(5)
        faults = enumerate_single_faults(network)
        vectors = sorting_binary_test_set(5)
        with api.Session(engine="bitpacked") as session:
            diagnosed = session.diagnose(network, faults, vectors)
            covered = session.fault_coverage(network, faults, vectors)
        assert diagnosed.coverage.coverage == covered.coverage
        assert diagnosed.coverage.detected_faults == covered.detected_faults
        assert dict(diagnosed.coverage.by_kind) == dict(covered.by_kind)
        assert covered.resolution is None  # matrix never materialised
