"""Cross-checks proving the scalar, vectorised and bit-packed engines agree.

Hypothesis property tests over random networks, random binary batches and
random fault universes: every engine (``apply_network_to_batch(engine=)``,
``Session(engine=)``) must produce identical outputs, identical property verdicts and identical fault-detection matrices.
These are the guarantees that let the fast bit-packed engine replace the
reference engines on the exhaustive workloads.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import session_matrix

from repro.api import Session
from repro.core import (
    EVALUATION_ENGINES,
    ComparatorNetwork,
    apply_network_to_batch,
    words_to_array,
)
from repro.faults import enumerate_single_faults
from repro.testsets import sorting_binary_test_set

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def networks(draw, min_lines: int = 2, max_lines: int = 7, max_size: int = 12):
    """A random standard comparator network."""
    n = draw(st.integers(min_lines, max_lines))
    size = draw(st.integers(0, max_size))
    comparators = []
    for _ in range(size):
        low = draw(st.integers(0, n - 2))
        high = draw(st.integers(low + 1, n - 1))
        comparators.append((low, high))
    return ComparatorNetwork.from_pairs(n, comparators)


@st.composite
def network_and_binary_batch(draw, max_words: int = 150):
    network = draw(networks())
    num_words = draw(st.integers(0, max_words))
    rows = draw(
        st.lists(
            st.lists(
                st.integers(0, 1),
                min_size=network.n_lines,
                max_size=network.n_lines,
            ),
            min_size=num_words,
            max_size=num_words,
        )
    )
    return network, rows


@st.composite
def network_and_faults(draw):
    network = draw(networks(min_lines=3, max_lines=6, max_size=8))
    kinds = draw(
        st.sets(
            st.sampled_from(("stuck-pass", "stuck-swap", "reversed", "line-stuck")),
            min_size=1,
        )
    )
    input_only = draw(st.booleans())
    faults = enumerate_single_faults(
        network, kinds=sorted(kinds), line_stuck_at_input_only=input_only
    )
    return network, faults


# ----------------------------------------------------------------------
# Batch evaluation agreement
# ----------------------------------------------------------------------


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(network_and_binary_batch())
def test_all_engines_agree_on_binary_batches(data):
    network, rows = data
    batch = words_to_array(rows, n_lines=network.n_lines)
    outputs = {
        engine: apply_network_to_batch(network, batch, engine=engine)
        for engine in EVALUATION_ENGINES
    }
    reference = outputs["scalar"]
    for engine, result in outputs.items():
        assert np.array_equal(result, reference), engine


@settings(
    max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
@given(networks(max_lines=6))
def test_all_engines_agree_on_sorter_verdicts(network):
    verdicts = {}
    for engine in EVALUATION_ENGINES:
        with Session(engine=engine) as session:
            for strategy in ("binary", "testset"):
                verdicts[strategy, engine] = session.verify(
                    network, "sorter", strategy=strategy
                ).verdict
    assert len(set(verdicts.values())) == 1, verdicts


@settings(
    max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
@given(networks(max_lines=6))
def test_all_engines_agree_on_test_set_application(network):
    vectors = sorting_binary_test_set(network.n_lines)
    verdicts = {}
    for engine in EVALUATION_ENGINES:
        with Session(engine=engine) as session:
            verdicts[engine] = session.passes_test_set(network, vectors).passed
    assert len(set(verdicts.values())) == 1, verdicts


# ----------------------------------------------------------------------
# Fault-simulation agreement: the batched prefix-sharing engine must equal
# the old per-fault loop (and both must equal the scalar reference)
# ----------------------------------------------------------------------


@settings(
    max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
@given(network_and_faults(), st.sampled_from(("specification", "reference")))
def test_fault_matrices_identical_across_engines(data, criterion):
    network, faults = data
    vectors = sorting_binary_test_set(network.n_lines)
    reference = session_matrix(
        network, faults, vectors, criterion, engine="scalar"
    )
    for engine in ("vectorized", "bitpacked"):
        matrix = session_matrix(network, faults, vectors, criterion, engine=engine)
        assert np.array_equal(matrix, reference), (engine, criterion)


@pytest.mark.parametrize("criterion", ["specification", "reference"])
@pytest.mark.parametrize("engine", ["scalar", "vectorized", "bitpacked"])
def test_fault_matrix_engines_on_batcher(batcher8, criterion, engine):
    """Deterministic pin: all engines, full fault universe, Batcher(8)."""
    faults = enumerate_single_faults(batcher8, line_stuck_at_input_only=False)
    vectors = sorting_binary_test_set(8)[:64]
    matrix = session_matrix(batcher8, faults, vectors, criterion, engine=engine)
    reference = session_matrix(
        batcher8, faults, vectors, criterion, engine="vectorized"
    )
    assert matrix.shape == (len(faults), 64)
    assert np.array_equal(matrix, reference)
