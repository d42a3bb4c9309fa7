"""Engine benchmarks: vectorised vs bit-packed on the exhaustive workloads.

The bit-packed engine (``repro.core.bitpacked``) stores 0/1 batches as
uint64 bit planes, 64 words per machine word, so one AND/OR pair evaluates a
comparator on 64 words at once.  These benchmarks time the two hot
workloads the ROADMAP cares about — exhaustive 0/1 verification and full
single-fault simulation — under each engine, and assert the engines agree
so the timings compare like for like.

Run with ``pytest benchmarks/bench_bitpacked_engine.py --benchmark-only``;
``benchmarks/bitpacked_smoke.py`` is the scripted (CI-friendly) variant
that writes ``BENCH_bitpacked.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constructions import batcher_sorting_network
from repro.faults import enumerate_single_faults
from repro.faults.simulation import _fault_detection_matrix_impl
from repro.properties.sorter import _is_sorter_impl
from repro.testsets import sorting_binary_test_set


@pytest.mark.parametrize("engine", ["vectorized", "bitpacked"])
@pytest.mark.parametrize("n", [12, 16])
def test_exhaustive_binary_verification(benchmark, n, engine):
    network = batcher_sorting_network(n)
    benchmark.group = f"exhaustive-binary-n{n}"
    assert benchmark(
        lambda: _is_sorter_impl(network, strategy="binary", engine=engine)
    )


@pytest.mark.parametrize("engine", ["vectorized", "bitpacked"])
@pytest.mark.parametrize("n", [8, 10])
def test_full_fault_simulation_engines(benchmark, n, engine):
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


@pytest.mark.parametrize("n", [10])
def test_engines_agree_on_the_benchmark_workload(n):
    """Not a timing: pins that the benchmarked engines compute the same thing."""
    device = batcher_sorting_network(n)
    faults = enumerate_single_faults(device)
    vectors = sorting_binary_test_set(n)
    assert np.array_equal(
        _fault_detection_matrix_impl(device, faults, vectors, engine="vectorized"),
        _fault_detection_matrix_impl(device, faults, vectors, engine="bitpacked"),
    )
    assert _is_sorter_impl(
        device, strategy="binary", engine="bitpacked"
    ) == _is_sorter_impl(device, strategy="binary", engine="vectorized")
