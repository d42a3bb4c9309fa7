"""The stacked fault kernel and the any-reduction's early-exit schedule.

The pruned bit-packed kernel carries a stack of faults through the
network suffix (:func:`repro.faults.simulation._sweep_stack`) below
``_STACK_MAX_BLOCKS`` blocks per plane and runs one fault at a time from
there on.  These tests pin what must not move: the counters, verdicts and
rows of the one-fault-at-a-time kernel (literals recorded before the
stack existed), independence from the stack height, both sides of the
plane-size crossover, and the early-exit vector schedule of the coverage
path, serial and sharded.
"""

from __future__ import annotations

import hashlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import criteria, cube_subsets, extended_universes, networks

from repro.api import Session
from repro.constructions import batcher_sorting_network
from repro.core.evaluation import unsorted_binary_words_array
from repro.core.random_networks import random_network, random_sorter_mutation
import repro.core.scratch as scratch
from repro.faults import (
    CubeVectors,
    LineStuckFault,
    ReversedComparatorFault,
    SimulationStats,
    enumerate_model_faults,
    enumerate_single_faults,
)
import repro.faults.simulation as simulation
from repro.faults.simulation import (
    _fault_detection_any_impl,
    _fault_detection_matrix_impl,
)

NETWORKS = {
    "batcher8": lambda: batcher_sorting_network(8),
    "mutant10": lambda: random_sorter_mutation(
        batcher_sorting_network(10), 7, num_mutations=2
    ),
    "random12": lambda: random_network(12, 40, 11),
}

#: (network, universe, vectors, criterion, path) ->
#: (SimulationStats.counts(), detected count, sha256 prefix of the packed
#: verdicts or matrix), recorded with the one-fault-at-a-time kernel.
#: Every case is at most 64 blocks, so one chunk.
PINNED = {
    ('batcher8', 'extended', 'thm22', 'specification', 'any'): ((377, 14, 0, 8572, 5716), 293, '229e0ecf75cb93da'),
    ('batcher8', 'extended', 'thm22', 'specification', 'matrix'): ((377, 14, 0, 8572, 5716), 23973, '076c78f05441091e'),
    ('batcher8', 'extended', 'thm22', 'reference', 'any'): ((377, 14, 0, 8572, 5716), 363, 'b65c459d169f0051'),
    ('batcher8', 'extended', 'thm22', 'reference', 'matrix'): ((377, 14, 0, 8572, 5716), 55898, '89a83d5b9703e3ec'),
    ('batcher8', 'extended', 'cube', 'specification', 'any'): ((377, 0, 0, 8572, 5716), 317, 'a3e37fc37ddc8785'),
    ('batcher8', 'extended', 'cube', 'specification', 'matrix'): ((377, 0, 0, 8572, 5716), 24922, '9a64a6cfc44e3e23'),
    ('batcher8', 'extended', 'cube', 'reference', 'any'): ((377, 0, 0, 8572, 5716), 377, 'a7b0a249ff15d3e5'),
    ('batcher8', 'extended', 'cube', 'reference', 'matrix'): ((377, 0, 0, 8572, 5716), 57408, '40d60c310951ecc2'),
    ('batcher8', 'input', 'thm22', 'specification', 'any'): ((73, 0, 0, 2300, 1044), 67, '0b190a9e2a5fc113'),
    ('batcher8', 'input', 'thm22', 'specification', 'matrix'): ((73, 0, 0, 2300, 1044), 2688, '0b3e03b463582655'),
    ('batcher8', 'input', 'thm22', 'reference', 'any'): ((73, 0, 0, 2300, 1044), 73, '8ec9a5fd91427ebc'),
    ('batcher8', 'input', 'thm22', 'reference', 'matrix'): ((73, 0, 0, 2300, 1044), 5288, '1a89b22015dcd911'),
    ('batcher8', 'input', 'cube', 'specification', 'any'): ((73, 0, 0, 2300, 1044), 67, '0b190a9e2a5fc113'),
    ('batcher8', 'input', 'cube', 'specification', 'matrix'): ((73, 0, 0, 2300, 1044), 2784, 'b11ed9329b7f8e6c'),
    ('batcher8', 'input', 'cube', 'reference', 'any'): ((73, 0, 0, 2300, 1044), 73, '8ec9a5fd91427ebc'),
    ('batcher8', 'input', 'cube', 'reference', 'matrix'): ((73, 0, 0, 2300, 1044), 5430, '581bfc3a62635787'),
    ('mutant10', 'extended', 'thm22', 'specification', 'any'): ((756, 15, 0, 111904, 81376), 725, 'd67b171d59d61655'),
    ('mutant10', 'extended', 'thm22', 'specification', 'matrix'): ((756, 15, 0, 111904, 81376), 418038, 'f4c99aa1bb92a140'),
    ('mutant10', 'extended', 'thm22', 'reference', 'any'): ((756, 15, 0, 111904, 81376), 741, '06c763af8d42b293'),
    ('mutant10', 'extended', 'thm22', 'reference', 'matrix'): ((756, 15, 0, 111904, 81376), 462732, 'cccadaadcc0bf447'),
    ('mutant10', 'extended', 'cube', 'specification', 'any'): ((756, 10, 0, 111920, 81360), 725, 'd67b171d59d61655'),
    ('mutant10', 'extended', 'cube', 'specification', 'matrix'): ((756, 10, 0, 111920, 81360), 420552, '04ba1e531bcb2225'),
    ('mutant10', 'extended', 'cube', 'reference', 'any'): ((756, 10, 0, 111920, 81360), 746, '4560e68e109189bd'),
    ('mutant10', 'extended', 'cube', 'reference', 'matrix'): ((756, 10, 0, 111920, 81360), 466478, '2c05e0ff91b8169d'),
    ('mutant10', 'input', 'thm22', 'specification', 'any'): ((116, 10, 0, 23392, 11168), 114, '3d03dcbb36dcf92b'),
    ('mutant10', 'input', 'thm22', 'specification', 'matrix'): ((116, 10, 0, 23392, 11168), 62016, 'e290bc28fa5f74cf'),
    ('mutant10', 'input', 'thm22', 'reference', 'any'): ((116, 10, 0, 23392, 11168), 106, '88f401b48f6aabcf'),
    ('mutant10', 'input', 'thm22', 'reference', 'matrix'): ((116, 10, 0, 23392, 11168), 32043, '357d3a64f183ea8f'),
    ('mutant10', 'input', 'cube', 'specification', 'any'): ((116, 10, 0, 23408, 11152), 114, '3d03dcbb36dcf92b'),
    ('mutant10', 'input', 'cube', 'specification', 'matrix'): ((116, 10, 0, 23408, 11152), 62180, 'cc8671f27a5f171c'),
    ('mutant10', 'input', 'cube', 'reference', 'any'): ((116, 10, 0, 23408, 11152), 106, '88f401b48f6aabcf'),
    ('mutant10', 'input', 'cube', 'reference', 'matrix'): ((116, 10, 0, 23408, 11152), 32269, 'd8d50126fa32fc52'),
    ('random12', 'extended', 'thm22', 'specification', 'any'): ((1104, 14, 0, 772544, 639296), 1104, 'fb87878e9dcc159a'),
    ('random12', 'extended', 'thm22', 'specification', 'matrix'): ((1104, 14, 0, 772544, 639296), 3483209, '2a6967b428e8392f'),
    ('random12', 'extended', 'thm22', 'reference', 'any'): ((1104, 14, 0, 772544, 639296), 1090, '2f323ff538980680'),
    ('random12', 'extended', 'thm22', 'reference', 'matrix'): ((1104, 14, 0, 772544, 639296), 2669579, '64a1cf7f4b7c44b2'),
    ('random12', 'extended', 'cube', 'specification', 'any'): ((1104, 14, 0, 772544, 639296), 1104, 'fb87878e9dcc159a'),
    ('random12', 'extended', 'cube', 'specification', 'matrix'): ((1104, 14, 0, 772544, 639296), 3488597, '1f68539a8e6e6331'),
    ('random12', 'extended', 'cube', 'reference', 'any'): ((1104, 14, 0, 772544, 639296), 1090, '2f323ff538980680'),
    ('random12', 'extended', 'cube', 'reference', 'matrix'): ((1104, 14, 0, 772544, 639296), 2676287, 'a6a9e0e9f0539abb'),
    ('random12', 'input', 'thm22', 'specification', 'any'): ((144, 14, 0, 138624, 75136), 144, '6acf95f515743e1c'),
    ('random12', 'input', 'thm22', 'specification', 'matrix'): ((144, 14, 0, 138624, 75136), 442378, '1dd180172a727549'),
    ('random12', 'input', 'thm22', 'reference', 'any'): ((144, 14, 0, 138624, 75136), 130, '228ae4d60a7c9f0d'),
    ('random12', 'input', 'thm22', 'reference', 'matrix'): ((144, 14, 0, 138624, 75136), 209867, '38a5ce82cf17f9fc'),
    ('random12', 'input', 'cube', 'specification', 'any'): ((144, 14, 0, 138624, 75136), 144, '6acf95f515743e1c'),
    ('random12', 'input', 'cube', 'specification', 'matrix'): ((144, 14, 0, 138624, 75136), 442804, '18d1729bb73ce10f'),
    ('random12', 'input', 'cube', 'reference', 'any'): ((144, 14, 0, 138624, 75136), 130, '228ae4d60a7c9f0d'),
    ('random12', 'input', 'cube', 'reference', 'matrix'): ((144, 14, 0, 138624, 75136), 210335, '69a2aee1ba78e7f7'),
}


def _digest(result: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(result).tobytes()).hexdigest()[:16]


def _run(network, faults, vectors, criterion, path, **knobs):
    impl = _fault_detection_any_impl if path == "any" else _fault_detection_matrix_impl
    stats = SimulationStats()
    result = impl(
        network, faults, vectors, criterion=criterion, engine="bitpacked",
        stats=stats, **knobs,
    )
    return result, stats


@pytest.mark.parametrize("case", sorted(PINNED), ids="-".join)
def test_pinned_counters_verdicts_and_rows(case):
    name, universe, vector_name, criterion, path = case
    network = NETWORKS[name]()
    faults = enumerate_single_faults(
        network, line_stuck_at_input_only=universe == "input"
    )
    vectors = (
        unsorted_binary_words_array(network.n_lines)
        if vector_name == "thm22"
        else CubeVectors(network.n_lines)
    )
    result, stats = _run(network, faults, vectors, criterion, path)
    assert stats.planned_grid == (1, 1)
    assert (stats.counts(), int(result.sum()), _digest(result)) == PINNED[case]


def _one_fault_per_stack(monkeypatch, network, vectors):
    """Shrink the stack budget to one fault's planes (height 1)."""
    n_blocks = -(-len(vectors) // 64)
    monkeypatch.setattr(scratch, "STACK_BYTES", network.n_lines * n_blocks * 8)


@given(networks(max_lines=7, max_size=12), criteria, st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_stack_height_changes_nothing(monkeypatch, network, criterion, data):
    """Random networks with reversed comparators, the stage-extended
    universe (stuck lines from stage 0 to ``size``) and a few faults of
    the generic fallback: one fault per stack gives the verdicts, rows and
    counters of the default height."""
    faults = data.draw(extended_universes(network), label="universe")
    if network.size:
        faults += enumerate_model_faults(network, "BridgingFault")[:3]
    vectors = data.draw(cube_subsets(network.n_lines, max_words=200), label="vectors")
    for path in ("any", "matrix"):
        default = _run(network, faults, vectors, criterion, path)
        with monkeypatch.context() as patch:
            _one_fault_per_stack(patch, network, vectors)
            single = _run(network, faults, vectors, criterion, path)
        assert np.array_equal(default[0], single[0])
        assert default[1].counts() == single[1].counts()


@pytest.mark.parametrize("criterion", ["specification", "reference"])
def test_stack_height_with_converging_and_edge_faults(monkeypatch, criterion):
    """A sorter's faults converge; stuck lines at stage 0 and at ``size``
    and reversed comparators enter at the two ends of the sweep."""
    network = batcher_sorting_network(6)
    size = network.size
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    faults += [
        LineStuckFault(0, 1, 0),
        LineStuckFault(5, 0, size),
        ReversedComparatorFault(0),
        ReversedComparatorFault(size - 1),
    ]
    vectors = unsorted_binary_words_array(6)
    for path in ("any", "matrix"):
        default = _run(network, faults, vectors, criterion, path)
        assert default[1].converged_faults > 0
        with monkeypatch.context() as patch:
            _one_fault_per_stack(patch, network, vectors)
            single = _run(network, faults, vectors, criterion, path)
        assert np.array_equal(default[0], single[0])
        assert default[1].counts() == single[1].counts()
        oracle = _run(network, faults, vectors, criterion, path, prune=False)[0]
        assert np.array_equal(default[0], oracle)


@pytest.mark.parametrize("blocks", [511, 512])
def test_both_sides_of_the_plane_size_crossover(monkeypatch, blocks):
    """Below ``_STACK_MAX_BLOCKS`` the stack runs, from it on the
    one-fault loop; forcing the other kernel changes no row or counter."""
    assert simulation._STACK_MAX_BLOCKS == 512
    network = random_sorter_mutation(batcher_sorting_network(10), 3)
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)[::7]
    rng = np.random.default_rng(blocks)
    vectors = rng.integers(0, 2, size=(blocks * 64 - 5, 10), dtype=np.int8)
    sweeps = []
    sweep = simulation._sweep_stack
    monkeypatch.setattr(
        simulation, "_sweep_stack", lambda *args: sweeps.append(1) or sweep(*args)
    )
    default = _run(network, faults, vectors, "specification", "matrix")
    assert bool(sweeps) == (blocks < 512)
    forced_cap = 1 << 30 if blocks >= 512 else 1
    monkeypatch.setattr(simulation, "_STACK_MAX_BLOCKS", forced_cap)
    other = _run(network, faults, vectors, "specification", "matrix")
    assert np.array_equal(default[0], other[0])
    assert default[1].counts() == other[1].counts()
    oracle = _run(network, faults, vectors, "specification", "matrix", prune=False)
    assert np.array_equal(default[0], oracle[0])


@pytest.mark.parametrize("blocks, grid", [(64, (1, 1)), (65, (1, 2)), (128, (1, 2))])
def test_early_exit_schedule(blocks, grid):
    """Coverage without a chunk size judges the first sixteenth of the
    blocks (at least 64), then the rest: one chunk up to 64 blocks, two
    above, and the coverage of the per-fault unpruned oracle either way."""
    network = random_sorter_mutation(batcher_sorting_network(12), 5)
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    rng = np.random.default_rng(blocks)
    vectors = rng.integers(0, 2, size=(blocks * 64, 12), dtype=np.int8)
    with Session(engine="bitpacked") as session:
        report = session.fault_coverage(network, faults, vectors)
    with Session(engine="bitpacked", prune=False) as session:
        oracle = session.fault_coverage(network, faults, vectors)
    assert report.stats.planned_grid == grid
    assert (report.detected_faults, report.coverage, dict(report.by_kind)) == (
        oracle.detected_faults, oracle.coverage, dict(oracle.by_kind)
    )
    if grid == (1, 2):
        assert report.stats.dropped_faults > 0


def test_sharded_coverage_follows_the_serial_schedule():
    """Batcher(14)'s Theorem 2.2 words are 256 blocks: two chunks, and two
    workers report the serial counters, not just its verdicts."""
    network = batcher_sorting_network(14)
    faults = enumerate_single_faults(network, line_stuck_at_input_only=False)
    vectors = unsorted_binary_words_array(14)
    with Session(engine="bitpacked") as session:
        serial = session.fault_coverage(network, faults, vectors)
    with Session(engine="bitpacked", workers=2) as session:
        sharded = session.fault_coverage(network, faults, vectors)
    assert serial.stats.planned_grid == (1, 2)
    assert sharded.stats.planned_grid[1] == 2
    assert sharded.stats.counts() == serial.stats.counts()
    assert sharded.detected_faults == serial.detected_faults


def test_early_exit_spans_keep_the_sorter_schedule_and_cap_chunks():
    """One schedule function serves the cached sorter sweep (uncapped, its
    spans as they were) and the coverage path (capped chunks)."""
    from repro.core.bitpacked import early_exit_spans

    for n in range(25):
        total = -(-(1 << n) // 64)
        first = max(64, total // 16)
        expected = ((0, total),) if first >= total else ((0, first), (first, total))
        assert early_exit_spans(total) == expected
    assert early_exit_spans(0) == ()
    for total, cap in ((100_000, 16_384), (1 << 20, 16_384), (65, 16_384), (64, 1)):
        spans = early_exit_spans(total, cap)
        assert spans[0][0] == 0 and spans[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(0 < stop - start <= cap for start, stop in spans)
        assert spans[0][1] == min(cap, max(64, total // 16), total)
