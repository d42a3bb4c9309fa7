"""The incremental front end: prefix restore instead of a full rebuild.

:func:`acquire_prefix_states` is the **only sanctioned call site** of
:meth:`repro.faults.simulation.PrefixStates.build` (rule ``RPR006`` of
:mod:`repro.devtools` enforces this): every simulator, property checker
and sharded worker obtains fault-free prefix states through it.  Given a
cache, it finds the longest cached comparator prefix of the requested
network (rolling-hash lookup, code-verified), copies that prefix's
delta planes, reconstructs the running state after the common prefix
**into arena rows** (:func:`repro.core.scratch.shared_arena`), and
re-records only the suffix from the first differing comparator onward —
the IC3-style reuse the ISSUE's mutate-and-retest loops need.  The
recorded deltas are bit-identical to a cold build by construction: the
common prefix is the same comparator sequence on the same packed input.

:func:`cached_cube_sorted` layers a verdict memo on top: the 0/1-cube
sorter check (zero-one principle, or Theorem 2.2 (i)'s unsorted inputs
for the ``testset`` strategy) with full-verdict and prefix-level reuse,
used by the property checkers when a cache is active.  It judges the
cube in early-exit chunks (:func:`repro.core.bitpacked.cube_sweep_spans`):
each chunk restores the donor's prefix state for its own block range
only, applies the candidate's suffix there and is judged before the next
chunk is touched, so a non-sorter usually costs a sixteenth of a sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.bitpacked import (
    PackedBatch,
    apply_comparators_packed,
    cube_sweep_spans,
    packed_all_binary_words,
    packed_is_sorted_arena,
)
from ..core.scratch import PlaneArena, allocation_free, shared_arena
from .keys import comparator_codes, cube_token, network_token, prefix_hashes
from .store import ResultCache

if TYPE_CHECKING:
    from ..core.comparator import Comparator
    from ..core.network import ComparatorNetwork
    from ..faults.simulation import PrefixStates

__all__ = ["acquire_prefix_states", "cached_cube_packed", "cached_cube_sorted"]


def acquire_prefix_states(
    network: ComparatorNetwork,
    packed_input: PackedBatch,
    *,
    cache: ResultCache | None = None,
    token: tuple | None = None,
    engine: str = "bitpacked",
    deltas_out: np.ndarray | None = None,
    arena: PlaneArena | bool | None = None,
) -> PrefixStates:
    """Fault-free prefix states for *network* on *packed_input*.

    Without a cache (or without an input *token*) this is exactly
    ``PrefixStates.build``.  With both, the store is consulted first: a
    full hit returns the cached record, a partial hit copies the common
    prefix's deltas and re-records only the suffix, a miss records
    everything — and the result is stored for the next call.  All three
    paths produce bit-identical delta planes.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free device.
    packed_input : PackedBatch
        The packed test-vector chunk.  **Must** hold the input named by
        *token* — the token is the cache's only notion of input identity.
    cache : ResultCache, optional
        The store to consult; ``None`` disables caching.
    token : tuple, optional
        Input-identity token (:mod:`repro.cache.keys`); ``None``
        disables caching for this call.
    engine : str
        Engine name embedded in the context key (part of the
        invalidation contract; see ``docs/CACHING.md``).
    deltas_out : numpy.ndarray, optional
        Pre-allocated ``(size, 2, n_blocks)`` destination, e.g. a
        shared-memory array of the sharded executor.  The cache never
        keeps references into it — entries built through it are copied
        into cache-owned storage.
    arena : PlaneArena or bool, optional
        Scratch arena for the prefix restore (``None`` = the process
        arena for this geometry, ``False`` = allocate fresh planes).

    Returns
    -------
    PrefixStates
        The prefix record for *network*, restored or freshly built.
    """
    from ..faults.simulation import PrefixStates

    if cache is None or token is None:
        return PrefixStates.build(network, packed_input, deltas_out)
    size = network.size
    codes = comparator_codes(network)
    hashes = prefix_hashes(codes)
    context = (token, engine, network.n_lines, packed_input.n_blocks)
    donor, lcp = cache.prefix_lookup(context, codes, hashes)
    if donor is not None and lcp == size and donor.deltas.shape[0] == size:
        if deltas_out is None:
            return donor
        np.copyto(deltas_out, donor.deltas)
        return PrefixStates(
            network, packed_input.planes, deltas_out, packed_input.num_words
        )
    n_blocks = packed_input.n_blocks
    deltas = (
        deltas_out
        if deltas_out is not None
        else np.empty((size, 2, n_blocks), dtype=packed_input.planes.dtype)
    )
    if donor is not None and lcp > 0:
        np.copyto(deltas[:lcp], donor.deltas[:lcp])
    if lcp < size:
        running = _running_after(donor, packed_input, lcp, arena)
        _record_suffix(network, running, deltas, lcp)
    states = PrefixStates(
        network, packed_input.planes, deltas, packed_input.num_words
    )
    if deltas_out is not None:
        # The caller's storage may be transient shared memory; keep a
        # private copy so cached entries outlive the run.
        keep = PrefixStates(
            network,
            packed_input.planes.copy(),
            deltas.copy(),
            packed_input.num_words,
        )
    else:
        keep = states
    cache.prefix_store(context, codes, hashes, keep)
    return states


def _running_after(
    donor: PrefixStates | None,
    packed_input: PackedBatch,
    lcp: int,
    arena: PlaneArena | bool | None,
) -> np.ndarray:
    """The full packed state after the common prefix, in writable planes.

    Restores into the arena's ``state`` buffer (no allocation) unless
    ``arena=False`` requests the legacy allocating path.
    """
    n_lines, n_blocks = packed_input.planes.shape
    if arena is False:
        buf = np.empty_like(packed_input.planes)
    else:
        if arena is None:
            arena = shared_arena(n_lines, n_blocks, packed_input.planes.dtype)
        else:
            arena.ensure(n_lines, n_blocks, packed_input.planes.dtype)
        buf = arena.state
    if donor is None or lcp == 0:
        np.copyto(buf, packed_input.planes)
    else:
        donor.state_after(lcp, out=buf)
    return buf


def _record_suffix(
    network: ComparatorNetwork,
    running: np.ndarray,
    deltas: np.ndarray,
    start: int,
) -> None:
    """Record comparators ``start..size-1`` into *deltas*.

    Mirrors the recording sweep of ``PrefixStates.build`` exactly
    (write the outputs into the delta pair, copy back into the running
    state), so a restored record is bit-identical to a cold one.
    """
    for index in range(start, network.size):
        comp = network.comparators[index]
        a = running[comp.low]
        b = running[comp.high]
        d_lo = deltas[index, 0]
        d_hi = deltas[index, 1]
        if comp.reversed:
            np.bitwise_or(a, b, out=d_lo)
            np.bitwise_and(a, b, out=d_hi)
        else:
            np.bitwise_and(a, b, out=d_lo)
            np.bitwise_or(a, b, out=d_hi)
        running[comp.low] = d_lo
        running[comp.high] = d_hi


def cached_cube_packed(n: int, cache: ResultCache) -> PackedBatch:
    """The packed exhaustive 0/1 cube on *n* lines, via the input region.

    Parameters
    ----------
    n : int
        Number of lines.
    cache : ResultCache
        The store whose input region is consulted.

    Returns
    -------
    PackedBatch
        The packed ``2**n``-word cube (cached after the first call).
    """
    token = cube_token(n)
    packed = cache.get_input(token)
    if packed is None:
        packed = packed_all_binary_words(n)
        cache.put_input(token, packed)
    return packed


def cached_cube_sorted(
    network: ComparatorNetwork,
    *,
    cache: ResultCache,
    arena: PlaneArena | bool | None = None,
    restrict_to_unsorted_inputs: bool = False,
) -> bool:
    """Does *network* sort the whole 0/1 cube?  (Cache-accelerated.)

    The zero-one-principle sorter check with both reuse levels: a
    verdict memo keyed by the exact network identity (a re-verified
    incumbent is a dictionary lookup), and, on a verdict miss, a prefix
    restore so a mutate-one-comparator candidate only re-simulates its
    suffix — without building or storing the candidate's own delta
    record (a throwaway mutant never becomes a donor; only the first
    network of a lineage is recorded).

    The cube is judged in the early-exit chunks of
    :func:`repro.core.bitpacked.cube_sweep_spans`: per chunk, the
    donor's state after the common prefix is restored for the chunk's
    block range only, the suffix is applied to that range, and the range
    is judged (:func:`_donor_chunk_sorted`, all in arena views).  The
    first chunk with an unsorted judged output settles the verdict, so a
    typical non-sorter never touches most of the cube.

    With *restrict_to_unsorted_inputs* the same cube sweep answers the
    ``testset`` strategy: only the outputs of Theorem 2.2 (i)'s unsorted
    inputs are judged.  Both strategies share the cube input and the
    prefix donors; each verdict has its own key, so neither strategy's
    verdict is ever read for the other (they differ on non-standard
    networks).

    Parameters
    ----------
    network : ComparatorNetwork
        The candidate network; its behaviour must be its comparator list
        (:func:`repro.cache.keys.cacheable_network`), since the key and
        the restore read only the comparators.
    cache : ResultCache
        The store to consult (required — the uncached spelling is the
        ordinary property checker).
    arena : PlaneArena or bool, optional
        Scratch arena (``None`` = this thread's shared arena for the
        geometry).
    restrict_to_unsorted_inputs : bool, optional
        Judge only the unsorted inputs (the ``testset`` verdict).

    Returns
    -------
    bool
        ``True`` when every judged cube word comes out sorted —
        bit-identical to the uncached bit-packed checker.
    """
    from ..faults.simulation import PrefixStates

    token = network_token(network)
    key = (
        ("cube-sorted", token, "unsorted-inputs")
        if restrict_to_unsorted_inputs
        else ("cube-sorted", token)
    )
    hit = cache.get_verdict(key)
    if hit is not None:
        return bool(hit)
    n = network.n_lines
    packed = cached_cube_packed(n, cache)
    if arena is None or arena is False:
        work = shared_arena(n, packed.n_blocks, packed.planes.dtype)
    else:
        arena.ensure(n, packed.n_blocks, packed.planes.dtype)
        work = arena
    codes = comparator_codes(network)
    hashes = prefix_hashes(codes)
    context = (cube_token(n), "bitpacked", n, packed.n_blocks)
    donor, lcp = cache.prefix_lookup(context, codes, hashes)
    if donor is None:
        # First sight of this lineage: record the full prefix so later
        # mutate-one-comparator candidates have a donor to restore from.
        # The record is its own donor, with an empty suffix.
        donor = PrefixStates.build(network, packed)
        cache.prefix_store(context, codes, hashes, donor)
        lcp = network.size
    suffix = network.comparators[lcp:]
    restrict = restrict_to_unsorted_inputs
    verdict = all(
        _donor_chunk_sorted(donor, lcp, suffix, work, span, restrict)
        for span in cube_sweep_spans(n)
    )
    cache.put_verdict(key, verdict)
    return verdict


@allocation_free
def _donor_chunk_sorted(
    donor: PrefixStates,
    lcp: int,
    suffix: tuple[Comparator, ...],
    work: PlaneArena,
    span: tuple[int, int],
    restrict_to_unsorted_inputs: bool,
) -> bool:
    """One chunk of :func:`cached_cube_sorted`'s early-exit sweep.

    Restores the donor's state after its first *lcp* comparators for the
    cube blocks ``span`` only, into that block range of the arena's
    ``state`` buffer, applies the candidate's *suffix* there (comparator
    scratch: the same range of one pool row), and judges the range.
    *work* must serve the whole cube's geometry; every plane the sweep
    touches is a view of it, so nothing plane-sized is allocated.

    Returns
    -------
    bool
        ``True`` when every judged word of the chunk comes out sorted.
    """
    start, stop = span
    state = donor.state_after(lcp, out=work.state[:, start:stop], span=span)
    if suffix:
        slot = work.acquire()
        try:
            apply_comparators_packed(
                state.planes, suffix, out=work.plane(slot)[start:stop]
            )
        finally:
            work.release(slot)
    return packed_is_sorted_arena(
        state,
        work,
        restrict_to_unsorted_inputs=restrict_to_unsorted_inputs,
        block_start=start,
    )
