"""Unit tests for the VLSI fault-model substrate.

The differential-oracle layer at the bottom pins every *registered* fault
model (single stuck-at, bridging, intermittent, k-subset multi-faults) to
a brute-force injection oracle — apply the faulted copy of the device with
the plain batch evaluator, no bit-plane tricks — and requires the pruned,
streamed and warm-cache simulator paths to reproduce that matrix bit for
bit with identical :class:`repro.faults.SimulationStats` counters.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import criteria, fault_universes, networks, odd_chunks

import repro.api as api
from repro._registry import fault_model_names
from repro.constructions import batcher_sorting_network, optimal_sorting_network
from repro.core import all_binary_words_array, apply_network_to_batch
from repro.core.evaluation import batch_is_sorted
from repro.exceptions import FaultModelError
from repro.faults import (
    BridgingFault,
    CubeVectors,
    IntermittentFault,
    LineStuckFault,
    MultiFault,
    ReversedComparatorFault,
    StuckPassFault,
    StuckSwapFault,
    compare_test_sets,
    coverage_report,
    detected_faults,
    enumerate_model_faults,
    enumerate_multi_faults,
    enumerate_single_faults,
    equivalent_fault_classes,
    fault_coverage,
    fault_detection_matrix,
    greedy_test_selection,
    undetected_faults,
)
from repro.faults.simulation import _fault_detection_matrix_impl
from repro.properties import is_sorter
from repro.testsets import sorting_binary_test_set
from repro.words import all_binary_words


class TestFaultModels:
    def test_stuck_pass_removes_a_comparator(self, four_sorter):
        faulty = StuckPassFault(0).apply_to(four_sorter)
        assert faulty.size == four_sorter.size - 1
        assert not is_sorter(faulty, strategy="binary")

    def test_reversed_fault_flips_a_comparator(self, four_sorter):
        faulty = ReversedComparatorFault(1).apply_to(four_sorter)
        assert faulty.size == four_sorter.size
        assert not faulty.standard
        assert not is_sorter(faulty, strategy="binary")

    def test_stuck_swap_always_exchanges(self, four_sorter):
        faulty = StuckSwapFault(0).apply_to(four_sorter)
        # On an input where the first comparator would not normally act,
        # the faulty device swaps anyway.
        comp = four_sorter.comparators[0]
        word = [0] * 4
        word[comp.low], word[comp.high] = 0, 1  # already in order
        clean = four_sorter.apply(tuple(word))
        broken = faulty.apply(tuple(word))
        assert clean != broken or not is_sorter(faulty, strategy="binary")

    def test_stuck_swap_batch_agrees_with_scalar(self, four_sorter):
        faulty = StuckSwapFault(2).apply_to(four_sorter)
        inputs = all_binary_words_array(4)
        batch_outputs = apply_network_to_batch(faulty, inputs)
        for row_in, row_out in zip(inputs, batch_outputs):
            assert tuple(int(v) for v in row_out) == faulty.apply(
                tuple(int(v) for v in row_in)
            )

    def test_line_stuck_fault(self, four_sorter):
        faulty = LineStuckFault(line=0, value=1).apply_to(four_sorter)
        # With line 0 stuck at 1, the all-zero input cannot come out all-zero.
        assert faulty.apply((0, 0, 0, 0)) != (0, 0, 0, 0)
        assert not is_sorter(faulty, strategy="binary")

    def test_line_stuck_batch_agrees_with_scalar(self, four_sorter):
        faulty = LineStuckFault(line=2, value=0, stage=1).apply_to(four_sorter)
        inputs = all_binary_words_array(4)
        batch_outputs = apply_network_to_batch(faulty, inputs)
        for row_in, row_out in zip(inputs, batch_outputs):
            assert tuple(int(v) for v in row_out) == faulty.apply(
                tuple(int(v) for v in row_in)
            )

    def test_invalid_parameters_rejected(self, four_sorter):
        with pytest.raises(FaultModelError):
            StuckPassFault(99).apply_to(four_sorter)
        with pytest.raises(FaultModelError):
            LineStuckFault(line=0, value=2)
        with pytest.raises(FaultModelError):
            LineStuckFault(line=9, value=0).apply_to(four_sorter)

    def test_fault_descriptions(self):
        assert "stuck-pass" in StuckPassFault(3).describe()
        assert "stuck-at-1" in LineStuckFault(2, 1).describe()
        assert "bridged" in BridgingFault(0, 1, "or").describe()
        assert "intermittent" in IntermittentFault(StuckPassFault(0)).describe()
        assert "multiple faults" in MultiFault(
            (StuckPassFault(0), StuckSwapFault(1))
        ).describe()


class TestCompositeFaultModels:
    """Scalar/batch/packed agreement and validation for the model zoo."""

    ZOO = (
        BridgingFault(1, 2, "and"),
        BridgingFault(2, 3, "or"),
        IntermittentFault(LineStuckFault(0, 1), salt=5),
        IntermittentFault(StuckSwapFault(1), salt=3),
        MultiFault((StuckSwapFault(0), LineStuckFault(3, 0))),
        MultiFault(
            (StuckPassFault(0), ReversedComparatorFault(1), BridgingFault(2, 3, "or"))
        ),
    )

    @pytest.mark.parametrize("fault", ZOO, ids=repr)
    def test_scalar_batch_and_packed_agree(self, four_sorter, fault):
        from repro.core.bitpacked import pack_batch, unpack_batch

        faulty = fault.apply_to(four_sorter)
        inputs = all_binary_words_array(4)
        batch = apply_network_to_batch(faulty, inputs)
        for row_in, row_out in zip(inputs, batch):
            assert tuple(int(v) for v in row_out) == faulty.apply(
                tuple(int(v) for v in row_in)
            )
        packed = unpack_batch(faulty.apply_packed(pack_batch(inputs), copy=True))
        assert np.array_equal(packed, batch)

    def test_invalid_parameters_rejected(self, four_sorter):
        with pytest.raises(FaultModelError):
            BridgingFault(0, 2)  # not adjacent
        with pytest.raises(FaultModelError):
            BridgingFault(2, 1)
        with pytest.raises(FaultModelError):
            BridgingFault(0, 1, coupling="xor")
        with pytest.raises(FaultModelError):
            BridgingFault(3, 4).apply_to(four_sorter)  # out of range
        with pytest.raises(FaultModelError):
            IntermittentFault("not a fault")
        with pytest.raises(FaultModelError):
            IntermittentFault(StuckPassFault(0), salt=0)
        with pytest.raises(FaultModelError):
            # Salt selects lines the 4-line device does not have.
            IntermittentFault(StuckPassFault(0), salt=1 << 6).apply_to(four_sorter)
        with pytest.raises(FaultModelError):
            IntermittentFault(IntermittentFault(StuckPassFault(0)))  # no nesting
        with pytest.raises(FaultModelError):
            MultiFault(())
        with pytest.raises(FaultModelError):
            # Two faults on one comparator conflict.
            MultiFault((StuckPassFault(0), StuckSwapFault(0)))
        with pytest.raises(FaultModelError):
            # Two forcings of one line conflict.
            MultiFault((LineStuckFault(1, 0), LineStuckFault(1, 1)))
        with pytest.raises(FaultModelError):
            # Re-bridging one pair conflicts.
            MultiFault((BridgingFault(0, 1, "and"), BridgingFault(0, 1, "or")))
        with pytest.raises(FaultModelError):
            MultiFault((StuckPassFault(0), IntermittentFault(StuckSwapFault(1))))

    def test_enumerate_for_counts(self, four_sorter):
        assert len(BridgingFault.enumerate_for(four_sorter)) == 2 * 3
        assert len(IntermittentFault.enumerate_for(four_sorter)) == 2 * 4
        assert all(
            isinstance(f, MultiFault) and len(f.faults) == 2
            for f in MultiFault.enumerate_for(four_sorter)
        )

    def test_intermittent_activation_depends_only_on_input_content(self, four_sorter):
        """The salted-parity activation is a pure function of the input word,
        so streamed / sharded chunk boundaries cannot change verdicts."""
        fault = IntermittentFault(StuckSwapFault(0), salt=0b101)
        faulty = fault.apply_to(four_sorter)
        clean_device = four_sorter
        broken = StuckSwapFault(0).apply_to(four_sorter)
        for word in all_binary_words(4):
            parity = (word[0] ^ word[2]) & 1
            expected = broken.apply(word) if parity else clean_device.apply(word)
            assert faulty.apply(word) == expected


class TestFaultEnumeration:
    def test_enumeration_counts(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        expected = 3 * four_sorter.size + 2 * four_sorter.n_lines
        assert len(faults) == expected

    def test_enumeration_subset_of_kinds(self, four_sorter):
        faults = enumerate_single_faults(four_sorter, kinds=("stuck-pass",))
        assert len(faults) == four_sorter.size
        assert all(isinstance(f, StuckPassFault) for f in faults)

    def test_unknown_kind_rejected(self, four_sorter):
        with pytest.raises(FaultModelError):
            enumerate_single_faults(four_sorter, kinds=("gremlin",))

    def test_equivalent_fault_classes_group_identical_behaviour(self, four_sorter):
        faults = enumerate_single_faults(four_sorter, kinds=("stuck-pass", "reversed"))
        classes = equivalent_fault_classes(four_sorter, faults)
        assert sum(len(c) for c in classes) == len(faults)
        assert len(classes) >= 2


class TestFaultSimulation:
    def test_detection_matrix_shape(self, four_sorter):
        faults = enumerate_single_faults(four_sorter, kinds=("stuck-pass",))
        vectors = sorting_binary_test_set(4)
        matrix = fault_detection_matrix(four_sorter, faults, vectors)
        assert matrix.shape == (len(faults), len(vectors))

    def test_specification_criterion_equals_nonsorter_detection(self, four_sorter):
        faults = enumerate_single_faults(four_sorter, kinds=("stuck-pass",))
        vectors = list(all_binary_words(4))
        matrix = fault_detection_matrix(
            four_sorter, faults, vectors, criterion="specification"
        )
        for fault, row in zip(faults, matrix):
            faulty = fault.apply_to(four_sorter)
            assert bool(row.any()) == (not is_sorter(faulty, strategy="binary"))

    def test_reference_criterion_is_at_least_as_sensitive(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        vectors = list(all_binary_words(4))
        spec = fault_detection_matrix(four_sorter, faults, vectors, criterion="specification")
        ref = fault_detection_matrix(four_sorter, faults, vectors, criterion="reference")
        assert bool(np.all(ref | ~spec))

    def test_unknown_criterion_rejected(self, four_sorter):
        with pytest.raises(FaultModelError):
            fault_detection_matrix(four_sorter, [], [], criterion="psychic")

    def test_detected_and_undetected_partition(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        vectors = sorting_binary_test_set(4)
        found = detected_faults(four_sorter, faults, vectors)
        missed = undetected_faults(four_sorter, faults, vectors)
        assert len(found) + len(missed) == len(faults)

    def test_large_valued_vectors_do_not_overflow(self, four_sorter):
        """Regression: the detection batch used to be built with the default
        int8 dtype, so permutation-style vectors with values above 127
        silently wrapped (e.g. 200 -> -56) and corrupted both criteria.  The
        matrix must now match the scalar reference exactly."""
        faults = enumerate_single_faults(
            four_sorter, kinds=("stuck-pass", "stuck-swap", "reversed")
        )
        vectors = [
            (400, 300, 200, 100),
            (100, 400, 200, 300),
            (1, 128, 129, 127),
        ]
        for criterion in ("specification", "reference"):
            matrix = fault_detection_matrix(
                four_sorter, faults, vectors, criterion=criterion
            )
            with api.Session(engine="scalar") as session:
                reference = session.fault_matrix(
                    four_sorter, faults, vectors, criterion=criterion
                ).matrix
            assert np.array_equal(matrix, reference), criterion

    def test_large_valued_reference_criterion_detects_reversed_fault(self):
        """Concrete overflow witness: with values straddling the int8 wrap
        point a reversed comparator must still be seen as a defect."""
        network = batcher_sorting_network(4)
        faults = [ReversedComparatorFault(0)]
        vectors = [(200, 150, 300, 250)]
        matrix = fault_detection_matrix(
            network, faults, vectors, criterion="reference"
        )
        assert bool(matrix[0, 0])

    def test_empty_vector_list(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        matrix = fault_detection_matrix(four_sorter, faults, [])
        assert matrix.shape == (len(faults), 0)

    @pytest.mark.parametrize("engine", ["scalar", "vectorized", "bitpacked"])
    def test_engine_selection(self, four_sorter, engine):
        faults = enumerate_single_faults(four_sorter)
        vectors = sorting_binary_test_set(4)
        with api.Session(engine=engine) as session:
            matrix = session.fault_matrix(four_sorter, faults, vectors).matrix
        assert matrix.shape == (len(faults), len(vectors))

    def test_unknown_engine_rejected(self, four_sorter):
        from repro.exceptions import EngineError

        with pytest.raises(EngineError):
            api.Session(engine="psychic")
        with pytest.raises(EngineError):
            _fault_detection_matrix_impl(
                four_sorter, [], [(0, 1, 1, 0)], engine="psychic"
            )


class TestCoverage:
    def test_paper_test_set_achieves_full_specification_coverage_for_standard_faults(self):
        """Theorem 2.2's test set detects every specification-visible fault
        whose faulty device is still a *standard* network (stuck-pass faults).

        For such devices sorted inputs can never fail, so testing only the
        unsorted words loses nothing relative to the full cube.
        """
        device = optimal_sorting_network(5)
        faults = enumerate_single_faults(device, kinds=("stuck-pass",))
        full_cube = list(all_binary_words(5))
        testset = sorting_binary_test_set(5)
        assert fault_coverage(device, faults, testset) == fault_coverage(
            device, faults, full_cube
        )

    def test_nonstandard_faults_can_escape_the_paper_test_set(self):
        """A stuck-swap fault can corrupt *sorted* inputs only, escaping the
        unsorted-words test set — the paper's model (standard comparators)
        genuinely matters for the VLSI application."""
        device = optimal_sorting_network(5)
        faults = enumerate_single_faults(device, kinds=("stuck-swap",))
        full_cube = list(all_binary_words(5))
        testset = sorting_binary_test_set(5)
        assert fault_coverage(device, faults, testset) <= fault_coverage(
            device, faults, full_cube
        )

    def test_coverage_report_breakdown(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        report = coverage_report(four_sorter, faults, sorting_binary_test_set(4))
        assert report.total_faults == len(faults)
        assert 0.0 <= report.coverage <= 1.0
        assert sum(total for _, total in report.by_kind.values()) == len(faults)

    def test_empty_fault_list_gives_full_coverage(self, four_sorter):
        assert fault_coverage(four_sorter, [], [(0, 1, 1, 0)]) == 1.0

    def test_greedy_selection_reaches_full_coverage_with_few_vectors(self):
        device = batcher_sorting_network(6)
        faults = enumerate_single_faults(device, kinds=("stuck-pass", "reversed"))
        candidates = sorting_binary_test_set(6)
        selected = greedy_test_selection(device, faults, candidates)
        assert 0 < len(selected) < len(candidates)
        assert fault_coverage(device, faults, selected) == fault_coverage(
            device, faults, candidates
        )

    def test_greedy_selection_bad_target(self, four_sorter):
        with pytest.raises(FaultModelError):
            greedy_test_selection(four_sorter, [], [], target_coverage=0.0)

    def test_compare_test_sets_returns_one_report_per_set(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        reports = compare_test_sets(
            four_sorter,
            faults,
            {"paper": sorting_binary_test_set(4), "tiny": [(1, 0, 0, 0)]},
        )
        assert set(reports) == {"paper", "tiny"}
        assert reports["paper"].coverage >= reports["tiny"].coverage


# ----------------------------------------------------------------------
# Differential oracles: brute-force injection vs the optimised simulators
# ----------------------------------------------------------------------
def brute_force_matrix(network, faults, vectors, criterion):
    """Detection matrix by literal fault injection — the trusted oracle.

    Applies ``fault.apply_to(network)`` to the whole batch with the plain
    evaluator: no bit planes, no pruning, no prefix sharing, no cache.
    """
    batch = np.asarray(vectors)
    clean = apply_network_to_batch(network, batch)
    rows = np.zeros((len(faults), batch.shape[0]), dtype=bool)
    for i, fault in enumerate(faults):
        out = apply_network_to_batch(fault.apply_to(network), batch)
        if criterion == "specification":
            rows[i] = ~batch_is_sorted(out)
        else:
            rows[i] = np.any(out != clean, axis=1)
    return rows


class TestDifferentialOracles:
    @given(networks(min_lines=2, max_lines=6, max_size=8), st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_registered_models_match_brute_force(self, network, data):
        """Every registered model: pruned, streamed and warm-cache paths
        reproduce the injection oracle bit for bit, counters included."""
        name, faults = data.draw(fault_universes(network), label="universe")
        if not faults:
            return
        criterion = data.draw(criteria, label="criterion")
        chunk = data.draw(odd_chunks, label="chunk")
        vectors = all_binary_words_array(network.n_lines)
        expected = brute_force_matrix(network, faults, vectors, criterion)
        with api.Session(engine="bitpacked", prune=True) as s:
            pruned = s.fault_matrix(
                network, faults, vectors, criterion=criterion
            ).matrix
        assert np.array_equal(pruned, expected), name
        with api.Session(engine="bitpacked", chunk_size=chunk) as s:
            streamed = s.fault_matrix(
                network, faults, CubeVectors(network.n_lines),
                criterion=criterion,
            ).matrix
        assert np.array_equal(streamed, expected), name
        with api.Session(engine="bitpacked", chunk_size=chunk, cache=True) as s:
            fill = s.fault_matrix(network, faults, vectors, criterion=criterion)
            warm = s.fault_matrix(network, faults, vectors, criterion=criterion)
        assert np.array_equal(fill.matrix, expected), name
        assert np.array_equal(warm.matrix, expected), name
        # Verdict replay restores the recorded counters exactly.
        assert warm.stats.counts() == fill.stats.counts()

    def test_every_model_on_a_real_shard_pool(self):
        """Deterministic end-to-end: each registered universe on batcher(5),
        2-process (faults × vector-chunks) grid vs the injection oracle,
        with the same chunking serial run agreeing counter for counter."""
        network = batcher_sorting_network(5)
        vectors = all_binary_words_array(5)
        with api.Session(engine="bitpacked", workers=2, chunk_size=16) as s:
            for name in fault_model_names():
                faults = enumerate_model_faults(network, name)
                expected = brute_force_matrix(
                    network, faults, vectors, "specification"
                )
                sharded = s.fault_matrix(network, faults, vectors)
                assert np.array_equal(sharded.matrix, expected), name
                with api.Session(engine="bitpacked", chunk_size=16) as serial_s:
                    serial = serial_s.fault_matrix(network, faults, vectors)
                assert np.array_equal(serial.matrix, expected), name
                assert sharded.stats.counts() == serial.stats.counts(), name

    def test_k2_multi_faults_match_brute_force(self):
        """The k=2 composite product space (post dominance pruning) stays
        pinned to the oracle under both criteria."""
        network = batcher_sorting_network(4)
        composites = enumerate_multi_faults(network, k=2)
        assert composites
        vectors = all_binary_words_array(4)
        for criterion in ("specification", "reference"):
            expected = brute_force_matrix(network, composites, vectors, criterion)
            with api.Session(engine="bitpacked") as session:
                actual = session.fault_matrix(
                    network, composites, vectors, criterion=criterion
                ).matrix
            assert np.array_equal(actual, expected), criterion

    def test_dominance_pruning_only_drops_duplicate_behaviour(self):
        """Every pruned composite behaves exactly like the clean device, a
        base fault or an earlier composite on the full cube."""
        network = batcher_sorting_network(4)
        base = enumerate_single_faults(
            network, kinds=("stuck-pass", "stuck-swap", "reversed")
        )
        everything = enumerate_multi_faults(
            network, base, k=2, prune_dominated=False
        )
        kept = enumerate_multi_faults(network, base, k=2, prune_dominated=True)
        assert len(kept) < len(everything)
        cube = all_binary_words_array(4)
        clean = apply_network_to_batch(network, cube).tobytes()
        seen = {clean}
        for fault in base:
            seen.add(apply_network_to_batch(fault.apply_to(network), cube).tobytes())
        survivors = set()
        for composite in everything:
            signature = apply_network_to_batch(
                composite.apply_to(network), cube
            ).tobytes()
            if signature not in seen:
                survivors.add(signature)
                seen.add(signature)
        assert len(kept) == len(survivors)
