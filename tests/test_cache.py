"""The caching contract of ``docs/CACHING.md``, cross-checked.

The load-bearing guarantee: everything a warm :class:`repro.api.ResultCache`
answers is **bit-identical** to a cold-cache run and to the legacy no-cache
path — verdicts, detection matrices and ``SimulationStats`` counters, across
engines, both detection criteria and odd chunk sizes (hypothesis-driven).
Alongside it: the key/rolling-hash machinery, the LRU byte bound, the
``resolve_cache`` knob semantics and the :class:`repro.api.Session` wiring
(``cache=`` constructor knob, ``REPRO_CACHE`` environment switch,
``CacheStats`` deltas on ``ExecutionInfo``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import functools
import pickle
import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import (
    chunk_boundary_cases,
    criteria,
    engines,
    mutate_one,
    networks,
    odd_chunks,
    session_matrix,
    session_verdict,
)

import repro.api as api
from repro._registry import fault_model_names
from repro.cache import (
    ResultCache,
    acquire_prefix_states,
    cacheable_network,
    cached_cube_sorted,
    comparator_codes,
    cube_token,
    default_cache,
    network_token,
    prefix_hashes,
    resolve_cache,
)
from repro.constructions import (
    batcher_sorting_network,
    bose_nelson_sorting_network,
    bubble_sorting_network,
)
from repro.core import Comparator, ComparatorNetwork
from repro.core.evaluation import all_binary_words_array
from repro.faults import enumerate_model_faults, enumerate_single_faults
from repro.faults.models import SwappingNetwork
from repro.faults.simulation import PrefixStates, _pack_vectors
from repro.testsets import (
    network_passes_test_set,
    sorting_binary_test_set,
    sorts_exactly_all_but,
)


# ----------------------------------------------------------------------
# Keys and rolling prefix hashes
# ----------------------------------------------------------------------
class TestKeys:
    def test_prefix_hashes_extend_rolling(self):
        codes = comparator_codes(batcher_sorting_network(6))
        hashes = prefix_hashes(codes)
        assert len(hashes) == len(codes) + 1
        # Prefix property: the hash sequence of a prefix is a prefix of
        # the hash sequence — the basis of the longest-prefix lookup.
        shorter = prefix_hashes(codes[:4])
        assert hashes[:5] == shorter

    def test_fault_tokens_distinguish_structured_universes(self):
        """Composite / nested faults get distinct structured tokens — the
        verdict keys must separate universes ``repr`` used to conflate."""
        from repro.cache import fault_token, faults_token
        from repro.faults import (
            BridgingFault,
            IntermittentFault,
            LineStuckFault,
            MultiFault,
            StuckPassFault,
        )

        faults = [
            StuckPassFault(0),
            LineStuckFault(0, 1),
            BridgingFault(0, 1, "and"),
            BridgingFault(0, 1, "or"),
            IntermittentFault(StuckPassFault(0), salt=3),
            IntermittentFault(StuckPassFault(0), salt=5),
            MultiFault((StuckPassFault(0), StuckPassFault(1))),
            MultiFault((StuckPassFault(0), BridgingFault(0, 1, "and"))),
        ]
        tokens = [fault_token(f) for f in faults]
        assert len(set(tokens)) == len(faults)
        assert all(hash(t) is not None for t in tokens)  # usable as keys
        assert faults_token(faults) == tuple(tokens)
        assert faults_token(faults[:2]) != faults_token(faults[1::-1])

    def test_network_token_changes_on_any_mutation(self):
        network = batcher_sorting_network(5)
        tokens = {network_token(network)}
        for i in range(network.size):
            tokens.add(network_token(mutate_one(network, i)))
        assert len(tokens) == network.size + 1

    def test_prefix_lookup_finds_longest_common_prefix(self):
        network = batcher_sorting_network(4)
        packed = _pack_vectors(network, all_binary_words_array(4))
        cache = ResultCache()
        states = acquire_prefix_states(
            network, packed, cache=cache, token=cube_token(4)
        )
        codes = comparator_codes(network)
        context = (cube_token(4), "bitpacked", 4, packed.n_blocks)
        for lcp in (network.size, network.size - 1, 1):
            mutant = (
                network if lcp == network.size else mutate_one(network, lcp)
            )
            mcodes = comparator_codes(mutant)
            donor, found = cache.prefix_lookup(
                context, mcodes, prefix_hashes(mcodes)
            )
            assert donor is states
            assert found == lcp
        assert codes == comparator_codes(network)  # lookup never mutates


# ----------------------------------------------------------------------
# Comparator codes: computed at most once per network, on every construction path
# ----------------------------------------------------------------------
def _faulty(name: str, *, pickled: bool = False) -> ComparatorNetwork:
    """The last fault of model *name* applied to Batcher(5), optionally
    after a pickle round trip (the sharded executor pickles networks)."""
    device = batcher_sorting_network(5)
    network = enumerate_model_faults(device, name)[-1].apply_to(device)
    return pickle.loads(pickle.dumps(network)) if pickled else network


def _batcher6() -> ComparatorNetwork:
    return batcher_sorting_network(6)


#: One network per construction path, each a zero-argument builder.
CONSTRUCTIONS = {
    "init": lambda: ComparatorNetwork(
        5, [(0, 1), Comparator(2, 4, True), (1, 3)]
    ),
    "from_pairs": lambda: ComparatorNetwork.from_pairs(5, [(0, 4), (1, 2)]),
    "slice": lambda: _batcher6()[2:9],
    "slice-step": lambda: _batcher6()[::3],
    "without_comparator": lambda: _batcher6().without_comparator(4),
    "without_comparator-last": lambda: _batcher6().without_comparator(-1),
    "with_comparator_replaced": lambda: _batcher6().with_comparator_replaced(
        3, Comparator(0, 5, True)
    ),
    "prefix": lambda: _batcher6().prefix(7),
    "then": lambda: _batcher6().then(bubble_sorting_network(6)),
    "add": lambda: _batcher6() + ComparatorNetwork(6, [Comparator(1, 4, True)]),
    "extended": lambda: _batcher6().extended([(0, 5), Comparator(2, 3, True)]),
    "pickle": lambda: pickle.loads(
        pickle.dumps(
            _batcher6().with_comparator_replaced(2, Comparator(1, 3, True))
        )
    ),
    **{
        f"{prefix}fault-{name}": functools.partial(
            _faulty, name, pickled=bool(prefix)
        )
        for name in fault_model_names()
        for prefix in ("", "pickle-")
    },
}


@pytest.mark.parametrize("build", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS.keys())
def test_cached_codes_match_a_fresh_build(build):
    # A network computes its comparator codes at most once — on first
    # read after __init__, or derived from its source's codes; either way
    # they equal a fresh encoding of the same comparators.
    network = build()
    fresh = ComparatorNetwork(network.n_lines, list(network.comparators))
    n = network.n_lines
    encoded = tuple(
        ((c.low * n + c.high) << 1) | int(c.reversed) for c in network.comparators
    )
    assert comparator_codes(network) == comparator_codes(fresh) == encoded
    assert network_token(network) == network_token(fresh) == ("net", n, *encoded)
    assert prefix_hashes(comparator_codes(network)) == prefix_hashes(encoded)
    # Fault models override evaluation, so they stay off the cached path
    # even though their codes name the fault-free comparator list.
    assert cacheable_network(network) is (type(network) is ComparatorNetwork)


# ----------------------------------------------------------------------
# resolve_cache knob semantics
# ----------------------------------------------------------------------
class TestResolveCache:
    def test_none_follows_the_caller_default(self):
        assert resolve_cache(None) is None
        assert resolve_cache(None, default=True) is default_cache()

    def test_false_disables_true_selects_process_cache(self):
        assert resolve_cache(False) is None
        assert resolve_cache(False, default=True) is None
        assert resolve_cache(True) is default_cache()

    def test_int_builds_a_bounded_store(self):
        store = resolve_cache(1 << 20)
        assert isinstance(store, ResultCache)
        assert store.max_bytes == 1 << 20
        assert store is not default_cache()

    def test_instance_passes_through(self):
        own = ResultCache(max_bytes=4096)
        assert resolve_cache(own) is own

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


# ----------------------------------------------------------------------
# The incremental front end: bit-identical to a cold build
# ----------------------------------------------------------------------
class TestAcquirePrefixStates:
    @given(networks(min_lines=3, max_size=10), st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_restored_deltas_bit_identical(self, network, data):
        if network.size == 0:
            return
        packed = _pack_vectors(
            network, all_binary_words_array(network.n_lines)
        )
        cache = ResultCache()
        token = cube_token(network.n_lines)
        # Miss: records everything; must equal a plain cold build.
        first = acquire_prefix_states(network, packed, cache=cache, token=token)
        cold = PrefixStates.build(network, packed)
        assert np.array_equal(first.deltas, cold.deltas)
        # Full hit: the stored record itself comes back.
        again = acquire_prefix_states(network, packed, cache=cache, token=token)
        assert again is first
        # Partial hit on a one-comparator mutant: copied prefix + re-recorded
        # suffix must equal the mutant's own cold build, bit for bit.
        site = data.draw(st.integers(0, network.size - 1), label="site")
        mutant = mutate_one(network, site)
        restored = acquire_prefix_states(
            mutant, packed, cache=cache, token=token
        )
        mutant_cold = PrefixStates.build(mutant, packed)
        assert np.array_equal(restored.deltas, mutant_cold.deltas)
        assert np.array_equal(
            restored.state_after(mutant.size).planes,
            mutant_cold.state_after(mutant.size).planes,
        )

    def test_without_cache_or_token_is_a_plain_build(self):
        network = batcher_sorting_network(4)
        packed = _pack_vectors(network, all_binary_words_array(4))
        cache = ResultCache()
        for kwargs in ({}, {"cache": cache}, {"token": cube_token(4)}):
            states = acquire_prefix_states(network, packed, **kwargs)
            assert np.array_equal(
                states.deltas, PrefixStates.build(network, packed).deltas
            )
        assert cache.stats().entries == 0

    def test_deltas_out_entries_are_private_copies(self):
        network = batcher_sorting_network(4)
        packed = _pack_vectors(network, all_binary_words_array(4))
        cache = ResultCache()
        shared = np.empty(
            (network.size, 2, packed.n_blocks), dtype=packed.planes.dtype
        )
        acquire_prefix_states(
            network, packed, cache=cache, token=cube_token(4),
            deltas_out=shared,
        )
        expected = shared.copy()
        shared.fill(0)  # simulate the shared-memory segment being reused
        kept = acquire_prefix_states(
            network, packed, cache=cache, token=cube_token(4)
        )
        assert np.array_equal(kept.deltas, expected)

    @given(networks(min_lines=2, max_size=8))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cached_cube_sorted_matches_the_plain_checker(self, network):
        cache = ResultCache()
        expected = session_verdict(network, strategy="binary", engine="bitpacked")
        for mutant in (network, mutate_one(network, 0) if network.size else network):
            reference = session_verdict(
                mutant, strategy="binary", engine="bitpacked"
            )
            assert cached_cube_sorted(mutant, cache=cache) is reference
            # Memo hit gives the same answer.
            assert cached_cube_sorted(mutant, cache=cache) is reference
        assert expected is session_verdict(
            network, strategy="binary", engine="bitpacked"
        )


@pytest.mark.parametrize(
    "network",
    [pytest.param(network, id=label) for label, network, _ in chunk_boundary_cases()],
)
def test_cached_chunks_match_the_vectorized_oracle(network):
    # The cached sorter check judges the cube in early-exit chunks on both
    # of its branches: a lineage's first network (a prefix miss, judged
    # from its own fresh record) and a candidate restored from a donor's
    # common prefix (a partial hit, suffix applied per chunk).
    with api.Session(engine="vectorized") as oracle:
        expected = {
            strategy: oracle.verify(network, strategy=strategy).verdict
            for strategy in ("binary", "testset")
        }
    for strategy, verdict in expected.items():
        with api.Session(engine="bitpacked", cache=True) as miss:
            assert miss.verify(network, strategy=strategy).verdict is verdict
            assert miss.cache.stats().prefix_misses == 1
        if network.size < 2:
            continue
        with api.Session(engine="bitpacked", cache=True) as restored:
            restored.verify(network.prefix(network.size // 2), strategy=strategy)
            partial = restored.cache.stats().prefix_partial_hits
            assert restored.verify(network, strategy=strategy).verdict is verdict
            assert restored.cache.stats().prefix_partial_hits == partial + 1
            # A memo hit repeats the verdict.
            assert restored.verify(network, strategy=strategy).verdict is verdict


# ----------------------------------------------------------------------
# Warm == cold == legacy across engines / criteria / chunk sizes
# ----------------------------------------------------------------------
class TestWarmColdIdentity:
    @given(networks(), engines, criteria, odd_chunks)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fault_matrix_and_stats(self, network, engine, criterion, chunk):
        faults = enumerate_single_faults(
            network, line_stuck_at_input_only=False
        )
        vectors = all_binary_words_array(network.n_lines)
        plain = session_matrix(network, faults, vectors, criterion, engine=engine)
        with api.Session(engine=engine, chunk_size=chunk, cache=False) as s:
            cold = s.fault_matrix(network, faults, vectors, criterion=criterion)
        with api.Session(engine=engine, chunk_size=chunk, cache=True) as s:
            fill = s.fault_matrix(network, faults, vectors, criterion=criterion)
            warm = s.fault_matrix(network, faults, vectors, criterion=criterion)
        for result in (cold, fill, warm):
            assert np.array_equal(result.matrix, plain)
        # SimulationStats replay: a verdict hit merges the recorded
        # counters, so warm counts equal the cold ones exactly.
        assert warm.stats.counts() == cold.stats.counts()
        assert fill.stats.counts() == cold.stats.counts()

    @given(networks(min_lines=3), criteria, odd_chunks)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fault_coverage_any_reduction(self, network, criterion, chunk):
        faults = enumerate_single_faults(network)
        vectors = all_binary_words_array(network.n_lines)
        with api.Session(engine="bitpacked", chunk_size=chunk, cache=False) as s:
            cold = s.fault_coverage(network, faults, vectors, criterion=criterion)
        with api.Session(engine="bitpacked", chunk_size=chunk, cache=True) as s:
            fill = s.fault_coverage(network, faults, vectors, criterion=criterion)
            warm = s.fault_coverage(network, faults, vectors, criterion=criterion)
        for report in (fill, warm):
            assert report.coverage == cold.coverage
            assert report.detected_faults == cold.detected_faults
            assert dict(report.by_kind) == dict(cold.by_kind)
            assert report.stats.counts() == cold.stats.counts()

    @given(networks())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_verify_and_passes_test_set(self, network):
        tests = sorting_binary_test_set(network.n_lines)
        plain_verdict = session_verdict(
            network, strategy="binary", engine="vectorized"
        )
        with api.Session(engine="vectorized") as reference:
            plain_passes = reference.passes_test_set(network, tests).passed
        with api.Session(engine="bitpacked", cache=True) as s:
            for _ in range(2):  # second round is answered from the store
                assert (
                    s.verify(network, "sorter", strategy="binary").verdict
                    is plain_verdict
                )
                assert s.passes_test_set(network, tests).passed is plain_passes

    def test_permutation_test_sets_fall_back_identically(self, four_sorter):
        # The cache serves the bit-packed 0/1 pipeline only: a permutation
        # test set routes to the vectorised engine and leaves it untouched.
        permutations = [(3, 1, 0, 2), (0, 2, 1, 3), (1, 0, 3, 2)]
        legacy = network_passes_test_set(four_sorter, permutations)
        with api.Session(cache=True) as s:
            for _ in range(2):
                cached = s.passes_test_set(four_sorter, permutations)
                assert cached.passed is legacy
                assert cached.execution.engine_effective == "vectorized"
                assert cached.execution.cache.verdict_hits == 0
                assert cached.execution.cache.verdict_misses == 0
            assert s.cache.stats().entries == 0


# ----------------------------------------------------------------------
# Where a cache must not answer: fault models, concurrent threads
# ----------------------------------------------------------------------
class TestCacheBoundaries:
    def test_fault_model_networks_get_their_own_verdicts(self):
        # A stuck-swap network keeps the fault-free comparator list but
        # overrides evaluation: neither a memoised verdict nor a prefix
        # restore of that list may answer for it, in either call order.
        clean = batcher_sorting_network(4)
        candidates = [clean, SwappingNetwork(clean, 0)]
        tests = sorting_binary_test_set(4)

        def verdicts(session, network):
            return (
                session.verify(network, strategy="binary").verdict,
                session.verify(network, strategy="testset").verdict,
                session.passes_test_set(network, tests).passed,
            )

        with api.Session(engine="vectorized") as oracle:
            expected = [verdicts(oracle, network) for network in candidates]
        assert expected == [(True, True, True), (False, False, False)]
        for order in ([1, 0, 1], [0, 1, 0]):
            with api.Session(engine="bitpacked", cache=True) as cached:
                for index in order:
                    assert verdicts(cached, candidates[index]) == expected[index]

    def test_threads_sharing_a_store_keep_their_own_scratch(self):
        # The verification service's shape: Sessions in concurrent threads
        # (more than the CI hosts' cores) over one thread-safe store.  All
        # lineages are 12-line cubes of one plane geometry, so a scratch
        # arena shared across threads would be overwritten mid-sweep.
        lineages = [
            batcher_sorting_network(12),
            bose_nelson_sorting_network(12),
            bubble_sorting_network(12),
        ]
        work = [
            [
                (candidate, strategy)
                for candidate in [network]
                + [mutate_one(network, i) for i in range(network.size)]
                for strategy in ("testset", "binary")
            ]
            for network in lineages
        ]
        with api.Session(engine="vectorized") as oracle:
            expected = [
                [oracle.verify(net, strategy=s).verdict for net, s in jobs]
                for jobs in work
            ]
        store = ResultCache(thread_safe=True)
        barrier = threading.Barrier(len(work), timeout=60)

        def run(jobs):
            with api.Session(engine="bitpacked", cache=store) as session:
                barrier.wait()
                return [session.verify(net, strategy=s).verdict for net, s in jobs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads mid-sweep
        try:
            with ThreadPoolExecutor(len(work)) as pool:
                futures = [pool.submit(run, jobs) for jobs in work]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


# ----------------------------------------------------------------------
# Eviction: the byte bound is a hard ceiling
# ----------------------------------------------------------------------
class TestEviction:
    def test_lru_eviction_pins_the_byte_bound(self):
        budget = 64 * 1024
        cache = ResultCache(max_bytes=budget)
        row = np.zeros(1024, dtype=np.uint8)  # 1 KiB + overhead per entry
        for i in range(256):
            cache.put_verdict(("row", i), row.copy())
            assert cache.stats().stored_bytes <= budget
        stats = cache.stats()
        assert stats.evictions > 0
        assert stats.entries < 256
        # Oldest entries went first; the newest survive.
        assert cache.get_verdict(("row", 255)) is not None
        assert cache.get_verdict(("row", 0)) is None

    def test_prefix_entries_participate_in_the_bound(self):
        network = batcher_sorting_network(8)
        packed = _pack_vectors(network, all_binary_words_array(8))
        token = cube_token(8)
        # Measure one stored record (planes + per-comparator bookkeeping).
        probe = ResultCache()
        acquire_prefix_states(network, packed, cache=probe, token=token)
        entry_bytes = probe.stats().stored_bytes
        cache = ResultCache(max_bytes=2 * entry_bytes)
        acquire_prefix_states(network, packed, cache=cache, token=token)
        for site in range(4):
            acquire_prefix_states(
                mutate_one(network, site), packed, cache=cache, token=token
            )
            assert cache.stats().stored_bytes <= cache.max_bytes
        assert cache.stats().evictions > 0

    def test_oversized_verdicts_are_dropped_not_thrashed(self):
        cache = ResultCache(max_bytes=64 * 1024)
        cache.put_verdict(("small",), b"x" * 128)
        before = cache.stats().stored_bytes
        cache.put_verdict(("giant",), np.zeros(32 * 1024, dtype=np.uint8))
        assert cache.get_verdict(("giant",)) is None
        assert cache.stats().stored_bytes == before
        assert cache.get_verdict(("small",)) is not None

    def test_clear_empties_but_keeps_counters(self):
        cache = ResultCache()
        cache.put_verdict(("k",), True)
        cache.get_verdict(("k",))
        cache.clear()
        stats = cache.stats()
        assert stats.entries == 0 and stats.stored_bytes == 0
        assert stats.verdict_hits == 1


# ----------------------------------------------------------------------
# Session wiring: knob, env switch, ExecutionInfo.cache deltas
# ----------------------------------------------------------------------
class TestSessionWiring:
    def test_cache_knob_spellings(self):
        assert api.Session().cache is None
        assert api.Session(cache=False).cache is None
        owned = api.Session(cache=True).cache
        assert isinstance(owned, ResultCache)
        assert owned is not default_cache()  # Session-owned, not process-wide
        assert api.Session(cache=1 << 20).cache.max_bytes == 1 << 20
        mine = ResultCache(max_bytes=4096)
        assert api.Session(cache=mine).cache is mine

    def test_execution_info_reports_per_call_deltas(self, four_sorter):
        with api.Session(engine="bitpacked", cache=True) as s:
            first = s.verify(four_sorter, "sorter", strategy="binary")
            second = s.verify(four_sorter, "sorter", strategy="binary")
        assert first.execution.cache is not None
        assert first.execution.cache.verdict_hits == 0
        assert second.execution.cache.verdict_hits == 1
        assert second.execution.cache.verdict_misses == 0
        # Gauges stay absolute in the delta.
        assert second.execution.cache.stored_bytes > 0

    def test_uncached_session_reports_no_cache_stats(self, four_sorter):
        with api.Session(engine="bitpacked") as s:
            result = s.verify(four_sorter, "sorter", strategy="binary")
        assert result.execution.cache is None

    def test_repro_cache_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert api.Session.default().cache is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        session = api.Session.default()
        assert isinstance(session.cache, ResultCache)

    def test_sharded_session_matches_serial_with_cache(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        vectors = sorting_binary_test_set(4)
        with api.Session(engine="bitpacked", cache=True) as serial:
            expected = serial.fault_matrix(four_sorter, faults, vectors)
        with api.Session(engine="bitpacked", workers=2, cache=True) as sharded:
            fill = sharded.fault_matrix(four_sorter, faults, vectors)
            warm = sharded.fault_matrix(four_sorter, faults, vectors)
        assert np.array_equal(fill.matrix, expected.matrix)
        assert np.array_equal(warm.matrix, expected.matrix)


# ----------------------------------------------------------------------
# Opt-in-by-default analysis workloads
# ----------------------------------------------------------------------
class TestAnalysisWorkloads:
    @given(networks(min_lines=3, max_lines=5, max_size=8), st.integers(0, 30))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sorts_exactly_all_but_matches_legacy(self, network, word_seed):
        n = network.n_lines
        bits = word_seed % (2 ** n)
        word = tuple((bits >> i) & 1 for i in range(n))
        cached = sorts_exactly_all_but(network, word, cache=ResultCache())
        legacy = sorts_exactly_all_but(network, word, cache=False)
        assert cached is legacy

    def test_reachable_tables_memoised_and_identical(self):
        from repro.analysis.minimal_search import reachable_function_tables

        store = ResultCache()
        plain = reachable_function_tables(3, 1, cache=False)
        first = reachable_function_tables(3, 1, cache=store)
        second = reachable_function_tables(3, 1, cache=store)
        assert second is first  # memo identity on the warm call
        assert first.keys() == plain.keys()
        for key, outputs in plain.items():
            assert np.array_equal(first[key], outputs)
