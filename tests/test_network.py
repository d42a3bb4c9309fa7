"""Unit tests for :mod:`repro.core.network`."""

from __future__ import annotations

import pytest

from repro.core import Comparator, ComparatorNetwork
from repro.exceptions import (
    InputLengthError,
    InvalidComparatorError,
    LineCountError,
)
from repro.words import all_binary_words, complement_reverse


class TestConstruction:
    def test_from_pairs(self, fig1_network):
        assert fig1_network.n_lines == 4
        assert fig1_network.size == 4
        assert fig1_network.comparators[0] == Comparator(0, 2)

    def test_identity_network_is_empty(self):
        net = ComparatorNetwork.identity(5)
        assert net.size == 0
        assert net.apply((3, 1, 2, 5, 4)) == (3, 1, 2, 5, 4)

    def test_zero_lines_rejected(self):
        with pytest.raises(LineCountError):
            ComparatorNetwork(0)

    def test_comparator_out_of_range_rejected(self):
        with pytest.raises(InvalidComparatorError):
            ComparatorNetwork(3, [(0, 3)])

    def test_accepts_pairs_and_comparators_mixed(self):
        net = ComparatorNetwork(3, [Comparator(0, 1), (1, 2)])
        assert net.size == 2

    def test_equality_and_hash(self, fig1_network):
        clone = ComparatorNetwork.from_pairs(4, [(0, 2), (1, 3), (0, 1), (2, 3)])
        assert clone == fig1_network
        assert hash(clone) == hash(fig1_network)
        assert clone != fig1_network.extended([(1, 2)])


class TestEvaluation:
    def test_fig1_example(self, fig1_network):
        # The paper's Fig. 1 trace: (4 1 3 2) ends as (1 3 2 4) after the
        # four transcribed comparators.
        assert fig1_network((4, 1, 3, 2)) == (1, 3, 2, 4)

    def test_completed_fig1_sorts_the_example(self, four_sorter):
        assert four_sorter((4, 1, 3, 2)) == (1, 2, 3, 4)

    def test_wrong_input_length_raises(self, fig1_network):
        with pytest.raises(InputLengthError):
            fig1_network.apply((1, 2, 3))

    def test_apply_accepts_lists_and_arrays(self, four_sorter):
        import numpy as np

        assert four_sorter.apply([2, 1, 4, 3]) == (1, 2, 3, 4)
        assert four_sorter.apply(np.array([2, 1, 4, 3])) == (1, 2, 3, 4)

    def test_trace_has_one_state_per_comparator_plus_input(self, four_sorter):
        states = four_sorter.trace((4, 3, 2, 1))
        assert len(states) == four_sorter.size + 1
        assert states[0] == (4, 3, 2, 1)
        assert states[-1] == (1, 2, 3, 4)

    def test_standard_network_never_unsorts_sorted_input(self, batcher8):
        for word in [(0,) * 8, (1,) * 8, (0, 0, 0, 1, 1, 1, 1, 1)]:
            assert batcher8.apply(word) == word

    def test_duplicate_values_handled(self, four_sorter):
        assert four_sorter((2, 2, 1, 1)) == (1, 1, 2, 2)


class TestStructure:
    def test_then_concatenates(self, fig1_network):
        tail = ComparatorNetwork.from_pairs(4, [(1, 2)])
        combined = fig1_network.then(tail)
        assert combined.size == 5
        assert combined.comparators[-1] == Comparator(1, 2)

    def test_add_operator(self, fig1_network):
        assert (fig1_network + ComparatorNetwork.identity(4)).size == 4

    def test_then_width_mismatch_raises(self, fig1_network):
        with pytest.raises(LineCountError):
            fig1_network.then(ComparatorNetwork.identity(5))

    def test_prefix(self, fig1_network):
        assert fig1_network.prefix(2).size == 2
        assert fig1_network.prefix(0).size == 0

    def test_without_comparator(self, fig1_network):
        smaller = fig1_network.without_comparator(0)
        assert smaller.size == 3
        assert smaller.comparators[0] == Comparator(1, 3)

    def test_with_comparator_replaced(self, fig1_network):
        replaced = fig1_network.with_comparator_replaced(0, Comparator(0, 1))
        assert replaced.comparators[0] == Comparator(0, 1)
        assert fig1_network.comparators[0] == Comparator(0, 2)  # original intact

    def test_derived_networks_check_only_what_they_add(self, fig1_network):
        from repro.faults.models import SwappingNetwork

        # List index semantics: negative indices, IndexError out of range.
        assert fig1_network.without_comparator(-1) == fig1_network.prefix(3)
        last = fig1_network.with_comparator_replaced(-1, (0, 3))
        assert last.comparators[-1] == Comparator(0, 3)  # pair → Comparator
        with pytest.raises(IndexError):
            fig1_network.without_comparator(4)
        with pytest.raises(IndexError):
            fig1_network.with_comparator_replaced(-5, Comparator(0, 1))
        # New comparators must fit on the network's lines.
        with pytest.raises(InvalidComparatorError):
            fig1_network.with_comparator_replaced(0, (0, 4))
        with pytest.raises(InvalidComparatorError):
            fig1_network.extended([(1, 2), (2, 4)])
        # Derived networks are plain networks that behave like rebuilt ones.
        faulty = SwappingNetwork(fig1_network, 0)
        derived = [
            faulty.without_comparator(1),
            faulty.with_comparator_replaced(1, Comparator(1, 3, True)),
            faulty.prefix(2),
            faulty.then(fig1_network),
            faulty.extended([(1, 2)]),
        ]
        for network in derived:
            assert type(network) is ComparatorNetwork
            rebuilt = ComparatorNetwork(network.n_lines, network.comparators)
            assert network == rebuilt and hash(network) == hash(rebuilt)

    def test_on_lines_embedding(self):
        small = ComparatorNetwork.from_pairs(2, [(0, 1)])
        embedded = small.on_lines(5, [1, 4])
        assert embedded.n_lines == 5
        assert embedded.comparators[0] == Comparator(1, 4)

    def test_on_lines_requires_increasing_targets(self):
        small = ComparatorNetwork.from_pairs(2, [(0, 1)])
        with pytest.raises(LineCountError):
            small.on_lines(5, [4, 1])

    def test_on_lines_wrong_count_raises(self):
        small = ComparatorNetwork.from_pairs(2, [(0, 1)])
        with pytest.raises(LineCountError):
            small.on_lines(5, [0, 1, 2])

    def test_shifted(self):
        net = ComparatorNetwork.from_pairs(2, [(0, 1)]).shifted(3, n_lines=6)
        assert net.n_lines == 6
        assert net.comparators[0] == Comparator(3, 4)

    def test_height(self, fig1_network, bubble5):
        assert fig1_network.height == 2
        assert bubble5.height == 1
        assert ComparatorNetwork.identity(3).height == 0

    def test_lines_touched(self, fig1_network):
        assert fig1_network.lines_touched() == (0, 1, 2, 3)

    def test_getitem_and_slicing(self, fig1_network):
        assert fig1_network[0] == Comparator(0, 2)
        assert fig1_network[:2].size == 2
        assert isinstance(fig1_network[:2], ComparatorNetwork)


class TestDuality:
    def test_dual_intertwines_complement_reverse(self, fig1_network):
        dual = fig1_network.dual()
        for word in all_binary_words(4):
            assert dual.apply(complement_reverse(word)) == complement_reverse(
                fig1_network.apply(word)
            )

    def test_dual_is_involution(self, batcher8):
        assert batcher8.dual().dual() == batcher8

    def test_dual_preserves_size_and_standardness(self, batcher8):
        dual = batcher8.dual()
        assert dual.size == batcher8.size
        assert dual.standard

    def test_dual_of_sorter_is_sorter(self, four_sorter):
        from repro.properties import is_sorter

        assert is_sorter(four_sorter.dual(), strategy="binary")

    def test_relabelled_identity_is_noop(self, four_sorter):
        assert four_sorter.relabelled(lambda i: i) == four_sorter
