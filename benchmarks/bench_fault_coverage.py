"""E11 — §1 VLSI motivation: fault coverage of the paper's test sets.

Regenerates the coverage comparison (Theorem 2.2 test set vs random vector
sets of various sizes, on a Batcher sorter with the full single-fault
universe) and times full fault simulation and greedy ATPG test selection.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import experiment_fault_coverage
from repro.constructions import batcher_sorting_network
from repro.faults import enumerate_single_faults, greedy_test_selection
from repro.faults.simulation import _fault_detection_matrix_impl
from repro.testsets import sorting_binary_test_set


def test_fault_coverage_table(reporter):
    rows = reporter("E11: fault coverage on Batcher(8)", lambda: experiment_fault_coverage(n=8, random_set_sizes=(8, 32, 128)))
    by_name = {row["test_set"]: row["coverage"] for row in rows}
    assert by_name["theorem22-binary-testset"] >= max(
        v for k, v in by_name.items() if k.startswith("random-")
    )


@pytest.mark.parametrize("engine", ["vectorized", "bitpacked"])
@pytest.mark.parametrize("n", [6, 8])
def test_full_fault_simulation(benchmark, n, engine):
    device = batcher_sorting_network(n)
    faults = enumerate_single_faults(device)
    vectors = sorting_binary_test_set(n)
    benchmark.group = f"fault-simulation-n{n}"
    matrix = benchmark(
        lambda: _fault_detection_matrix_impl(
            device, faults, vectors, engine=engine
        )
    )
    assert matrix.shape == (len(faults), len(vectors))


@pytest.mark.parametrize("n", [6])
def test_greedy_atpg_selection(benchmark, n):
    device = batcher_sorting_network(n)
    faults = enumerate_single_faults(device, kinds=("stuck-pass", "reversed"))
    candidates = sorting_binary_test_set(n)
    selected = benchmark(lambda: greedy_test_selection(device, faults, candidates))
    assert 0 < len(selected) < len(candidates)
