"""Unit tests for the bit-packed evaluation engine (:mod:`repro.core.bitpacked`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Comparator,
    ComparatorNetwork,
    all_binary_words_array,
    apply_network_packed,
    apply_network_to_batch,
    batch_is_sorted,
    evaluate_on_all_binary_inputs,
    pack_batch,
    pack_words,
    packed_all_binary_words,
    packed_equal,
    packed_is_sorted,
    unpack_batch,
)
from repro.core.bitpacked import (
    BLOCK_BITS,
    packed_clear_sorted_cube_words,
    packed_cube_range,
    packed_first_rank,
    rank_to_word,
    unpack_bits,
)
from repro.exceptions import EngineError, InputLengthError, NotBinaryError


class TestPacking:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_pack_unpack_round_trip_full_cube(self, n):
        batch = all_binary_words_array(n)
        packed = pack_batch(batch)
        assert packed.num_words == 2**n
        assert packed.planes.shape == (n, (2**n + 63) // 64)
        assert np.array_equal(unpack_batch(packed), batch)

    def test_bit_layout_word_j_is_bit_j(self):
        # Word 3 (and only word 3) carries a 1 on line 1 → bit 3 of plane 1.
        words = [(0, 0), (0, 0), (0, 0), (0, 1), (0, 0)]
        packed = pack_words(words)
        assert int(packed.planes[0, 0]) == 0
        assert int(packed.planes[1, 0]) == 1 << 3

    def test_more_than_one_block(self):
        rng = np.random.default_rng(7)
        batch = rng.integers(0, 2, size=(3 * BLOCK_BITS + 17, 5), dtype=np.int8)
        packed = pack_batch(batch)
        assert packed.n_blocks == 4
        assert np.array_equal(unpack_batch(packed), batch)

    def test_padding_bits_stay_zero(self):
        batch = np.ones((5, 3), dtype=np.int8)
        packed = pack_batch(batch)
        assert int(packed.planes[0, 0]) == 0b11111
        assert np.array_equal(packed.pad_mask(), np.uint64([0b11111]))

    def test_empty_batch(self):
        packed = pack_batch(np.zeros((0, 4), dtype=np.int8))
        assert packed.num_words == 0
        assert packed.planes.shape == (4, 0)
        assert unpack_batch(packed).shape == (0, 4)
        assert packed_is_sorted(packed).shape == (0,)

    def test_empty_batch_width_preserved_via_hint(self):
        packed = pack_batch(np.zeros((0, 0), dtype=np.int8), n_lines=6)
        assert packed.planes.shape == (6, 0)

    def test_non_binary_rejected(self):
        with pytest.raises(NotBinaryError):
            pack_batch(np.array([[0, 2]], dtype=np.int64))
        with pytest.raises(NotBinaryError):
            pack_batch(np.array([[-1, 0]], dtype=np.int64))

    def test_wrong_ndim_rejected(self):
        with pytest.raises(InputLengthError):
            pack_batch(np.zeros(4, dtype=np.int8))

    @pytest.mark.parametrize("n", range(0, 10))
    def test_packed_all_binary_words_matches_packing_the_array(self, n):
        direct = packed_all_binary_words(n)
        reference = pack_batch(all_binary_words_array(n))
        assert direct.num_words == reference.num_words
        assert np.array_equal(direct.planes, reference.planes)


class TestPackedPredicates:
    def test_packed_is_sorted_matches_unpacked(self):
        rng = np.random.default_rng(0)
        batch = rng.integers(0, 2, size=(200, 6), dtype=np.int8)
        assert np.array_equal(
            packed_is_sorted(pack_batch(batch)), batch_is_sorted(batch)
        )

    def test_packed_is_sorted_single_line(self):
        batch = np.array([[0], [1]], dtype=np.int8)
        assert packed_is_sorted(pack_batch(batch)).tolist() == [True, True]

    def test_packed_equal(self):
        a = pack_words([(0, 1), (1, 1), (0, 0)])
        b = pack_words([(0, 1), (1, 0), (0, 0)])
        assert packed_equal(a, b).tolist() == [True, False, True]

    def test_packed_equal_shape_mismatch(self):
        with pytest.raises(InputLengthError):
            packed_equal(pack_words([(0, 1)]), pack_words([(0, 1, 1)]))


    @pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 9])
    def test_clearing_sorted_ranks_leaves_the_unsorted_words(self, n):
        # Every block range of the cube, so the closed-form ranks are
        # checked at every offset: only Thm 2.2 (i)'s words stay set.
        unsorted = ~batch_is_sorted(all_binary_words_array(n))
        total = (2**n + BLOCK_BITS - 1) // BLOCK_BITS
        for start in range(total):
            for stop in range(start + 1, total + 1):
                chunk = packed_cube_range(n, start, stop)
                mask = packed_clear_sorted_cube_words(
                    chunk.pad_mask(), n, block_start=start
                )
                words = slice(start * BLOCK_BITS, start * BLOCK_BITS + chunk.num_words)
                assert np.array_equal(
                    unpack_bits(mask, chunk.num_words), unsorted[words]
                )

    def test_first_rank_names_the_first_set_word(self):
        mask = np.zeros(3, dtype=np.uint64)
        assert packed_first_rank(mask) is None
        mask[1] = np.uint64(0b1010 << 60)
        mask[2] = np.uint64(1)
        assert packed_first_rank(mask) == 64 + 61
        assert packed_first_rank(mask, block_start=5) == (5 + 1) * 64 + 61
        assert rank_to_word(6, 4) == (0, 1, 1, 0)


class TestPackedEvaluation:
    def test_matches_vectorized_on_the_cube(self, batcher8):
        batch = all_binary_words_array(8)
        expected = apply_network_to_batch(batcher8, batch)
        packed_out = apply_network_packed(batcher8, pack_batch(batch))
        assert np.array_equal(unpack_batch(packed_out), expected)

    def test_reversed_comparator(self):
        net = ComparatorNetwork(2, [Comparator(0, 1, reversed=True)])
        out = apply_network_to_batch(net, all_binary_words_array(2), engine="bitpacked")
        assert [tuple(int(v) for v in row) for row in out] == [
            (0, 0),
            (1, 0),
            (1, 0),
            (1, 1),
        ]

    def test_copy_semantics(self, four_sorter):
        packed = pack_batch(all_binary_words_array(4))
        before = packed.planes.copy()
        apply_network_packed(four_sorter, packed)
        assert np.array_equal(packed.planes, before)
        apply_network_packed(four_sorter, packed, copy=False)
        assert not np.array_equal(packed.planes, before)

    def test_line_count_mismatch(self, four_sorter):
        with pytest.raises(InputLengthError):
            apply_network_packed(four_sorter, pack_batch(all_binary_words_array(3)))

    def test_evaluate_on_all_binary_inputs_bitpacked(self, batcher8):
        assert np.array_equal(
            evaluate_on_all_binary_inputs(batcher8),
            apply_network_to_batch(
                batcher8, all_binary_words_array(8), engine="vectorized"
            ),
        )


class TestEngineSelection:
    def test_unknown_engine_rejected(self, four_sorter):
        with pytest.raises(EngineError):
            apply_network_to_batch(
                four_sorter, all_binary_words_array(4), engine="quantum"
            )

    def test_bitpacked_rejects_non_binary_batches(self, four_sorter):
        perms = np.array([[3, 2, 1, 0]], dtype=np.int64)
        with pytest.raises(NotBinaryError):
            apply_network_to_batch(four_sorter, perms, engine="bitpacked")

    def test_scalar_engine_matches_vectorized(self, four_sorter):
        batch = all_binary_words_array(4)
        assert np.array_equal(
            apply_network_to_batch(four_sorter, batch, engine="scalar"),
            apply_network_to_batch(four_sorter, batch),
        )


class TestFaultyNetworksPacked:
    """The faulty-behaviour subclasses provide packed overrides; check them
    against their scalar ``apply`` on the full cube."""

    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_stuck_swap(self, four_sorter, index):
        from repro.faults import StuckSwapFault

        faulty = StuckSwapFault(index).apply_to(four_sorter)
        batch = all_binary_words_array(4)
        out = unpack_batch(apply_network_packed(faulty, pack_batch(batch)))
        for row_in, row_out in zip(batch, out):
            assert tuple(int(v) for v in row_out) == faulty.apply(
                tuple(int(v) for v in row_in)
            )

    @pytest.mark.parametrize("line,value,stage", [(0, 1, 0), (2, 0, 1), (3, 1, 4)])
    def test_stuck_line(self, four_sorter, line, value, stage):
        from repro.faults import LineStuckFault

        faulty = LineStuckFault(line=line, value=value, stage=stage).apply_to(
            four_sorter
        )
        batch = all_binary_words_array(4)
        out = unpack_batch(apply_network_packed(faulty, pack_batch(batch)))
        for row_in, row_out in zip(batch, out):
            assert tuple(int(v) for v in row_out) == faulty.apply(
                tuple(int(v) for v in row_in)
            )

    def test_stuck_at_one_does_not_leak_into_padding(self, four_sorter):
        from repro.faults import LineStuckFault

        faulty = LineStuckFault(line=0, value=1, stage=0).apply_to(four_sorter)
        packed = pack_words([(0, 0, 0, 0)] * 3)  # 3 words, 61 padding bits
        out = apply_network_packed(faulty, packed)
        assert np.array_equal(out.planes & ~out.pad_mask()[None, :], 0 * out.planes)


class TestFloatBatches:
    def test_fractional_floats_raise_not_binary(self):
        network = ComparatorNetwork.from_pairs(2, [(0, 1)])
        batch = np.array([[0.75, 0.25]])
        with pytest.raises(NotBinaryError):
            pack_batch(batch)
        with pytest.raises(NotBinaryError):
            apply_network_to_batch(network, batch, engine="bitpacked")

    def test_integral_floats_are_accepted(self):
        network = ComparatorNetwork.from_pairs(2, [(0, 1)])
        batch = np.array([[1.0, 0.0], [0.0, 1.0]])
        outputs = apply_network_to_batch(network, batch, engine="bitpacked")
        assert np.array_equal(
            outputs, apply_network_to_batch(network, batch, engine="vectorized")
        )


class TestNarrowBinaryBatch:
    def test_narrows_binary_ints(self):
        from repro.core import narrow_binary_batch

        batch = narrow_binary_batch(np.array([[0, 1]], dtype=np.int64))
        assert batch.dtype == np.int8

    def test_keeps_non_binary_ints_and_floats(self):
        from repro.core import narrow_binary_batch

        batch = narrow_binary_batch(np.array([[0, 5]], dtype=np.int64))
        assert batch.dtype == np.int64
        floats = narrow_binary_batch(np.array([[0.25, 0.75]]))
        assert floats.dtype == np.float64
