"""Unit tests for the sorter property checkers and classical lemmas."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
import pytest
from strategies import mutate_one, networks, odd_chunks

from repro.api import Session
from repro.constructions import (
    batcher_sorting_network,
    bitonic_sorting_network,
    bose_nelson_sorting_network,
    bubble_sorting_network,
    optimal_sorting_network,
)
from repro.core import Comparator, ComparatorNetwork
from repro.exceptions import TestSetError
from repro.parallel import ExecutionConfig
from repro.properties import (
    SORTER_STRATEGIES,
    find_sorting_counterexample,
    floyd_lemma_holds_for,
    fraction_sorted,
    is_sorter,
    is_sorter_binary,
    is_sorter_permutation,
    sorts_all_words,
    sorts_word,
    threshold_words,
    unsorted_outputs,
    zero_one_principle_holds_for,
)
from repro.testsets import near_sorter
from repro.words import all_binary_words, unsorted_binary_words


class TestIsSorter:
    @pytest.mark.parametrize("strategy", SORTER_STRATEGIES)
    def test_all_strategies_accept_a_sorter(self, batcher8, strategy):
        assert is_sorter(batcher8, strategy=strategy)

    @pytest.mark.parametrize("strategy", SORTER_STRATEGIES)
    def test_all_strategies_reject_a_non_sorter(self, non_sorter_4, strategy):
        assert not is_sorter(non_sorter_4, strategy=strategy)

    @pytest.mark.parametrize("strategy", SORTER_STRATEGIES)
    def test_all_strategies_reject_near_sorters(self, strategy):
        adversary = near_sorter((0, 1, 1, 0, 1, 0))
        assert not is_sorter(adversary, strategy=strategy)

    def test_empty_network_on_one_line_is_a_sorter(self):
        assert is_sorter(ComparatorNetwork.identity(1), strategy="binary")

    def test_empty_network_on_two_lines_is_not(self):
        assert not is_sorter(ComparatorNetwork.identity(2), strategy="binary")

    def test_unknown_strategy_rejected(self, batcher8):
        with pytest.raises(TestSetError):
            is_sorter(batcher8, strategy="magic")

    def test_strategies_agree_on_random_networks(self, rng):
        from repro.core import random_network

        for _ in range(15):
            net = random_network(5, 8, rng)
            verdicts = {is_sorter(net, strategy=s) for s in SORTER_STRATEGIES}
            assert len(verdicts) == 1

    def test_counterexample_is_a_real_failure(self, non_sorter_4):
        witness = find_sorting_counterexample(non_sorter_4)
        assert witness is not None
        assert not sorts_word(non_sorter_4, witness)

    def test_counterexample_none_for_sorter(self, batcher8):
        assert find_sorting_counterexample(batcher8) is None

    def test_counterexample_restricted_candidates(self):
        adversary = near_sorter((1, 0, 1, 0))
        # Searching only other words finds nothing.
        others = [w for w in unsorted_binary_words(4) if w != (1, 0, 1, 0)]
        assert find_sorting_counterexample(adversary, candidates=others) is None
        assert find_sorting_counterexample(
            adversary, candidates=[(1, 0, 1, 0)]
        ) == (1, 0, 1, 0)


class TestBitpackedTestsetOnThePackedCube:
    """The bit-packed ``testset`` runs the packed cube with the sorted
    inputs masked out; the materialised ``vectorized`` test set is its
    oracle, on standard and non-standard networks alike."""

    def test_strategies_keep_their_own_verdicts_on_one_cached_session(self):
        # Reversed comparators unsort the sorted input 001, which the
        # Thm 2.2 test set leaves out: binary says no, testset says yes.
        network = ComparatorNetwork(
            3,
            [Comparator(0, 1, True), Comparator(1, 2, True), Comparator(0, 2)],
        )
        with Session(engine="bitpacked", cache=True) as session:
            verdicts = [
                session.verify(network, strategy=strategy).verdict
                for strategy in ("binary", "testset", "binary")
            ]
        assert verdicts == [False, True, False]

    def test_one_line_network_sorts_its_empty_test_set(self):
        network = ComparatorNetwork.identity(1)
        assert find_sorting_counterexample(network, engine="bitpacked") is None
        with Session(engine="bitpacked", cache=True) as session:
            assert session.verify(network, strategy="testset").verdict

    @given(networks(), odd_chunks)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bitpacked_testset_matches_the_vectorized_oracle(self, network, chunk):
        candidates = [network]
        if network.size:
            candidates.append(mutate_one(network, network.size // 2))
        with Session(engine="vectorized") as oracle:
            expected = {
                (candidate, strategy): oracle.verify(
                    candidate, strategy=strategy
                ).verdict
                for candidate in candidates
                for strategy in ("binary", "testset")
            }
        with (
            Session(engine="bitpacked") as plain,
            Session(engine="bitpacked", chunk_size=chunk) as streamed,
            Session(engine="bitpacked", cache=True) as cached,
        ):
            # Interleaved, repeated: later calls on the cached Session hit
            # the verdict memo or restore the incumbent's prefix.
            for _ in range(2):
                for candidate in candidates:
                    for strategy in ("testset", "binary"):
                        for session in (plain, streamed, cached):
                            result = session.verify(candidate, strategy=strategy)
                            assert result.verdict == expected[candidate, strategy]
        config = ExecutionConfig(chunk_size=chunk)
        for candidate in candidates:
            witness = find_sorting_counterexample(candidate)
            assert (witness is None) == expected[candidate, "testset"]
            assert find_sorting_counterexample(candidate, engine="bitpacked") == witness
            assert (
                find_sorting_counterexample(
                    candidate, engine="bitpacked", config=config
                )
                == witness
            )


class TestSortednessHelpers:
    def test_sorts_word(self, four_sorter):
        assert sorts_word(four_sorter, (3, 1, 2, 0))

    def test_sorts_all_words(self, four_sorter):
        assert sorts_all_words(four_sorter, all_binary_words(4))

    def test_unsorted_outputs_for_near_sorter(self):
        sigma = (0, 1, 0, 1, 0)
        adversary = near_sorter(sigma)
        assert unsorted_outputs(adversary, all_binary_words(5)) == [sigma]

    def test_fraction_sorted(self, non_sorter_4):
        fraction = fraction_sorted(non_sorter_4, list(all_binary_words(4)))
        assert 0.0 < fraction < 1.0

    def test_fraction_sorted_empty_collection(self, four_sorter):
        assert fraction_sorted(four_sorter, []) == 1.0


class TestZeroOnePrincipleAndFloyd:
    @pytest.mark.parametrize(
        "factory,n",
        [
            (batcher_sorting_network, 5),
            (bose_nelson_sorting_network, 5),
            (bubble_sorting_network, 4),
            (optimal_sorting_network, 6),
        ],
    )
    def test_binary_and_permutation_verdicts_agree_for_sorters(self, factory, n):
        network = factory(n)
        assert is_sorter_binary(network)
        assert is_sorter_permutation(network)

    def test_zero_one_principle_on_random_networks(self, rng):
        from repro.core import random_network

        for _ in range(10):
            assert zero_one_principle_holds_for(random_network(5, 6, rng))

    def test_zero_one_principle_on_near_sorters(self):
        for sigma in [(1, 0, 0, 1), (0, 1, 1, 0, 0)]:
            assert zero_one_principle_holds_for(near_sorter(sigma))

    def test_zero_one_principle_on_nonstandard_network(self):
        assert zero_one_principle_holds_for(bitonic_sorting_network(4))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_floyd_lemma_for_sorters_and_others(self, n, rng):
        from repro.core import random_network

        assert floyd_lemma_holds_for(batcher_sorting_network(n))
        assert floyd_lemma_holds_for(random_network(n, 4, rng))

    def test_threshold_words(self):
        images = threshold_words((3, 1, 2, 1))
        assert (1, 0, 0, 0) in images  # threshold 3
        assert (1, 0, 1, 0) in images  # threshold 2
        assert (1, 1, 1, 1) in images  # threshold 1

    def test_threshold_images_explain_general_sorting(self, four_sorter):
        # A network sorts a word iff it sorts all of its threshold images.
        word = (5, 2, 7, 2)
        sorted_all_images = all(
            sorts_word(four_sorter, image) for image in threshold_words(word)
        )
        assert sorted_all_images == sorts_word(four_sorter, word)


class TestMonotonicity:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_monotonicity_for_sorters(self, n):
        from repro.properties import monotonicity_holds_for

        assert monotonicity_holds_for(batcher_sorting_network(n))

    def test_monotonicity_for_random_and_adversary_networks(self, rng):
        from repro.core import random_network
        from repro.properties import monotonicity_holds_for

        assert monotonicity_holds_for(near_sorter((1, 1, 0, 0, 1)))
        for _ in range(5):
            assert monotonicity_holds_for(random_network(5, 7, rng))

    def test_monotonicity_limit_guard(self, batcher8):
        from repro.properties import find_monotonicity_violation

        with pytest.raises(ValueError):
            find_monotonicity_violation(batcher8, exhaustive_limit=4)
