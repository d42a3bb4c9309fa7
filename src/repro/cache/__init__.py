"""``repro.cache`` — cross-call memoisation + incremental re-verification.

The Session-owned, content-addressed result store behind the ``cache=``
knob of :class:`repro.api.Session` and the opt-in-by-default analysis
workloads.  Three layers (full contract in ``docs/CACHING.md``):

:mod:`repro.cache.keys`
    Key construction: per-comparator codes, rolling 64-bit **prefix
    hashes** (one per prefix length), and input tokens (cube spans,
    array fingerprints, exact word lists).  Engine and plane geometry
    are embedded in every key — changing either addresses different
    entries, which *is* the invalidation mechanism.
:mod:`repro.cache.store`
    :class:`ResultCache` — the LRU, byte-bounded store with four
    regions (prefix states, verdicts, packed inputs, generic memos) and
    :class:`CacheStats` counters surfaced per call on
    :attr:`repro.api.ExecutionInfo.cache`.
:mod:`repro.cache.restore`
    The incremental front end: :func:`acquire_prefix_states` finds the
    longest cached comparator prefix, restores its state into arena
    rows and re-records only the suffix — the single sanctioned call
    site of ``PrefixStates.build`` (devtools rule ``RPR006``).

Everything served from the cache is **bit-identical** to a cold-cache
run by construction; ``tests/test_cache.py`` pins this with a
hypothesis cross-check suite.
"""

from .keys import (
    array_token,
    batch_fingerprint,
    cacheable_network,
    chunk_token,
    comparator_codes,
    cube_token,
    fault_token,
    faults_token,
    network_token,
    prefix_hashes,
    words_token,
)
from .restore import acquire_prefix_states, cached_cube_packed, cached_cube_sorted
from .store import (
    DEFAULT_MAX_BYTES,
    CacheStats,
    ResultCache,
    default_cache,
    resolve_cache,
)

__all__ = [
    "ResultCache",
    "CacheStats",
    "DEFAULT_MAX_BYTES",
    "default_cache",
    "resolve_cache",
    "acquire_prefix_states",
    "cached_cube_packed",
    "cached_cube_sorted",
    "comparator_codes",
    "prefix_hashes",
    "network_token",
    "cacheable_network",
    "batch_fingerprint",
    "cube_token",
    "array_token",
    "words_token",
    "chunk_token",
    "fault_token",
    "faults_token",
]
