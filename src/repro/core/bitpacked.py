"""Bit-packed (bit-plane) evaluation engine for 0/1 batches.

The paper's headline experiments evaluate comparator networks on *enormous*
binary batches — up to all ``2**n`` words of the cube — and on a 0/1 domain a
comparator degenerates to pure boolean logic: the low output is the AND of
the inputs and the high output is the OR (swapped for a reversed
comparator).  That admits a bitwise-parallel representation:

Bit-plane layout
----------------
A batch of ``num_words`` binary words on ``n_lines`` lines is stored as an
array ``planes`` of shape ``(n_lines, n_blocks)`` and dtype ``uint64``
(little-endian, ``n_blocks = ceil(num_words / 64)``).  Bit ``j`` of block
``b`` of plane ``i`` is the value carried by **line i of word 64*b + j** —
i.e. each plane is one *line* of the network across the whole batch, 64
words per machine word.  Padding bits (word indices ``>= num_words`` in the
last block) are kept at 0 by construction; :meth:`PackedBatch.pad_mask`
gives the valid-bit mask per block.

With this layout one comparator is evaluated on 64 words at once::

    lo = planes[low] & planes[high]       # AND  = minimum on {0, 1}
    hi = planes[low] | planes[high]       # OR   = maximum on {0, 1}

(`lo`/`hi` swap for a reversed comparator), which is roughly a 64× density
improvement over the per-column ``int8`` engine in
:mod:`repro.core.evaluation`, and a much larger wall-clock win because each
numpy call now touches ``num_words / 64`` machine words instead of
``num_words`` bytes.

The engine is exposed to callers through the ``engine="bitpacked"`` option
threaded through :func:`repro.core.evaluation.apply_network_to_batch`, the
property checkers, the fault-simulation engine and the CLI; the test suite
cross-checks it against the scalar and vectorised engines on random
networks and batches.

Only 0/1 data can be packed — packing non-binary values raises
:class:`~repro.exceptions.NotBinaryError`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import InputLengthError, NotBinaryError
from .network import ComparatorNetwork
from .scratch import PlaneArena, allocation_free

__all__ = [
    "BLOCK_BITS",
    "PackedBatch",
    "pack_batch",
    "pack_words",
    "unpack_batch",
    "packed_all_binary_words",
    "packed_cube_range",
    "cube_sweep_spans",
    "rank_to_word",
    "packed_first_rank",
    "packed_clear_sorted_cube_words",
    "apply_network_packed",
    "apply_comparators_packed",
    "packed_is_sorted",
    "packed_is_sorted_arena",
    "packed_unsorted_blocks",
    "packed_equal",
    "packed_zero_count_planes",
    "packed_count_gt_blocks",
    "packed_selection_violation_blocks",
    "unpack_bits",
]

#: Number of words carried per machine word (one uint64 block).
BLOCK_BITS = 64

#: Explicit little-endian uint64: bit j of block b is word 64*b + j, which
#: makes the pack/unpack round trip independent of the platform byte order.
_BLOCK_DTYPE = np.dtype("<u8")

_ALL_ONES_INT = (1 << BLOCK_BITS) - 1
_ALL_ONES = np.uint64(_ALL_ONES_INT)

#: Inside one block, bit ``j`` of entry ``s`` is bit ``s`` of ``j``: the
#: plane pattern of the cube line that carries rank bit ``s < 6``.
_LOW_BIT_PATTERNS = (
    np.uint64(0xAAAAAAAAAAAAAAAA),
    np.uint64(0xCCCCCCCCCCCCCCCC),
    np.uint64(0xF0F0F0F0F0F0F0F0),
    np.uint64(0xFF00FF00FF00FF00),
    np.uint64(0xFFFF0000FFFF0000),
    np.uint64(0xFFFFFFFF00000000),
)


def _blocks_for(num_words: int) -> int:
    return (num_words + BLOCK_BITS - 1) // BLOCK_BITS


@dataclass
class PackedBatch:
    """A binary batch in bit-plane form.

    Attributes
    ----------
    planes:
        ``(n_lines, n_blocks)`` uint64 array; bit ``j`` of ``planes[i, b]``
        is line ``i`` of word ``64*b + j``.
    num_words:
        Number of valid words (the remaining bits of the last block are
        padding and always 0 on the input side).
    """

    planes: np.ndarray
    num_words: int

    @property
    def n_lines(self) -> int:
        return self.planes.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.planes.shape[1]

    def copy(self) -> PackedBatch:
        """A deep copy (fresh plane storage, same word count)."""
        return PackedBatch(self.planes.copy(), self.num_words)

    def pad_mask(self) -> np.ndarray:
        """Per-block uint64 mask with a 1 for every *valid* word position."""
        mask = np.full(self.n_blocks, _ALL_ONES, dtype=_BLOCK_DTYPE)
        tail = self.num_words % BLOCK_BITS
        if self.n_blocks and tail:
            mask[-1] = np.uint64((1 << tail) - 1)
        return mask


def pack_batch(batch, *, n_lines: int | None = None) -> PackedBatch:
    """Pack a ``(num_words, n_lines)`` 0/1 array into bit planes.

    Parameters
    ----------
    batch:
        2-D integer (or boolean) array whose entries are all 0 or 1.
    n_lines:
        Optional expected line count — mainly so empty batches of shape
        ``(0, 0)`` coming from legacy callers keep their width.

    Raises
    ------
    NotBinaryError
        If the batch contains anything other than 0 and 1.
    """
    data = np.asarray(batch)
    if data.ndim != 2:
        raise InputLengthError(
            f"batch must be 2-D (num_words, n_lines), got shape {data.shape}"
        )
    if n_lines is not None and data.shape[0] == 0 and data.shape[1] == 0:
        data = data.reshape((0, n_lines))
    if n_lines is not None and data.shape[1] != n_lines:
        raise InputLengthError(
            f"batch has {data.shape[1]} columns, expected {n_lines}"
        )
    if data.dtype != np.bool_ and data.size:
        low, high = data.min(), data.max()
        if low < 0 or high > 1:
            raise NotBinaryError(
                "the bit-packed engine requires 0/1 data; batch contains "
                f"values in [{low}, {high}]"
            )
        # Integer dtypes in [0, 1] are exactly {0, 1}; anything else (e.g.
        # floats) must be checked for fractional values, which `data != 0`
        # below would otherwise silently round up to 1.
        if data.dtype.kind not in "biu" and not bool(np.all(data % 1 == 0)):
            raise NotBinaryError(
                "the bit-packed engine requires 0/1 data; batch contains "
                "fractional values"
            )
    num_words, lines = data.shape
    n_blocks = _blocks_for(num_words)
    bits = np.zeros((lines, n_blocks * BLOCK_BITS), dtype=np.uint8)
    bits[:, :num_words] = (data != 0).T
    packed_bytes = np.packbits(bits, axis=1, bitorder="little")
    planes = np.ascontiguousarray(packed_bytes).view(_BLOCK_DTYPE)
    return PackedBatch(planes, num_words)


def pack_words(
    words: Iterable[Sequence[int]], *, n_lines: int | None = None
) -> PackedBatch:
    """Pack an iterable of equal-length 0/1 words (see :func:`pack_batch`)."""
    from .evaluation import words_to_array

    return pack_batch(words_to_array(words, n_lines=n_lines), n_lines=n_lines)


def unpack_batch(packed: PackedBatch, dtype=np.int8) -> np.ndarray:
    """Expand a :class:`PackedBatch` back to a ``(num_words, n_lines)`` array."""
    if packed.n_blocks == 0 or packed.n_lines == 0:
        return np.zeros((packed.num_words, packed.n_lines), dtype=dtype)
    as_bytes = np.ascontiguousarray(
        packed.planes.astype(_BLOCK_DTYPE, copy=False)
    ).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, : packed.num_words].T.astype(dtype)


def unpack_bits(blocks: np.ndarray, num_words: int) -> np.ndarray:
    """Expand a 1-D uint64 block vector into a boolean vector per word."""
    if blocks.size == 0:
        return np.zeros(num_words, dtype=bool)
    as_bytes = np.ascontiguousarray(blocks.astype(_BLOCK_DTYPE, copy=False)).view(
        np.uint8
    )
    bits = np.unpackbits(as_bytes, bitorder="little")
    return bits[:num_words].astype(bool)


def packed_cube_range(n: int, block_start: int, block_stop: int) -> PackedBatch:
    """Blocks ``[block_start, block_stop)`` of the packed ``2**n`` cube.

    The returned batch equals the corresponding block columns of
    :func:`packed_all_binary_words` (word ``64*block_start + j`` of the chunk
    is the binary expansion of that rank, most significant bit on line 0),
    but only the requested range is ever materialised — this is the primitive
    the streaming executor (:mod:`repro.parallel`) iterates to keep
    exhaustive verification at ``n >= 28`` in constant memory.

    Line ``i`` of word ``r`` is bit ``n - 1 - i`` of ``r``, which inside the
    bit-plane layout is either constant per block (shift ``>= 6``) or a fixed
    64-bit pattern repeated across blocks (shift ``< 6``).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    total_words = 1 << n
    total_blocks = _blocks_for(total_words)
    if not 0 <= block_start <= block_stop <= total_blocks:
        raise ValueError(
            f"block range [{block_start}, {block_stop}) out of bounds for "
            f"{total_blocks} cube blocks at n={n}"
        )
    n_blocks = block_stop - block_start
    num_words = max(
        0, min(total_words, block_stop * BLOCK_BITS) - block_start * BLOCK_BITS
    )
    planes = np.empty((n, n_blocks), dtype=_BLOCK_DTYPE)
    block_index = np.arange(block_start, block_stop, dtype=np.uint64)
    for line in range(n):
        shift = n - 1 - line
        row = planes[line]
        if shift >= 6:
            # The bit is constant across each 64-word block: 0 or 1 per
            # block, times all-ones.
            np.right_shift(block_index, np.uint64(shift - 6), out=row)
            np.bitwise_and(row, np.uint64(1), out=row)
            np.multiply(row, _ALL_ONES, out=row)
        else:
            row.fill(_LOW_BIT_PATTERNS[shift])
    packed = PackedBatch(planes, num_words)
    if num_words < n_blocks * BLOCK_BITS:
        packed.planes &= packed.pad_mask()[None, :]
    return packed


def packed_all_binary_words(n: int) -> PackedBatch:
    """All ``2**n`` binary words, generated *directly* in packed form.

    Equivalent to ``pack_batch(all_binary_words_array(n))`` (same word order:
    word ``r`` is the binary expansion of ``r``, most significant bit on line
    0) but never materialises the ``(2**n, n)`` unpacked array, so exhaustive
    workloads stay ``O(2**n * n / 64)`` end to end.  This is the single-shot
    form of :func:`packed_cube_range`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return packed_cube_range(n, 0, _blocks_for(1 << n))


#: The first chunk of an early-exit cube sweep is this fraction of the
#: cube's blocks (:func:`cube_sweep_spans`) ...
_FIRST_CHUNK_FRACTION = 16

#: ... but at least this many blocks (4096 words).  Below about this
#: plane length a numpy call costs about the same whatever the length, so
#: a split would only add a dispatch: on a 2-vCPU VM it cost sorters
#: 35–50 µs (+30–45 %) at n = 8–12 and saved failing networks next to
#: nothing.
_FIRST_CHUNK_MIN_BLOCKS = 64


def cube_sweep_spans(n: int) -> tuple[tuple[int, int], ...]:
    """The chunk schedule of a single-shot, early-exit sweep of the cube.

    By the zero-one principle one unsorted output refutes a sorter, and a
    non-sorter's first failing input usually has a low rank: most mutants
    of a sorter fail within the first sixteenth of the cube.  So the
    cached 0/1 sorter check (:func:`repro.cache.cached_cube_sorted`)
    judges the cube in two chunks — the first ``1/16`` of its blocks (at
    least 64 blocks), then the rest — and stops after the first chunk
    with an unsorted judged output.  A sorter pays one extra chunk
    dispatch; a cube of at most 64 blocks (``n <= 12``) is one chunk.

    Parameters
    ----------
    n : int
        Cube dimension (number of lines).

    Returns
    -------
    tuple of (int, int)
        Half-open block spans in rank order, covering all
        ``ceil(2**n / 64)`` blocks; one span when there are at most 64.
    """
    total = _blocks_for(1 << n)
    first = max(_FIRST_CHUNK_MIN_BLOCKS, total // _FIRST_CHUNK_FRACTION)
    if first >= total:
        return ((0, total),)
    return ((0, first), (first, total))


def rank_to_word(rank: int, n: int) -> tuple[int, ...]:
    """The cube word of the given rank.

    Parameters
    ----------
    rank : int
        Position in the lexicographic cube order, ``0 <= rank < 2**n``.
    n : int
        Word length (number of network lines).

    Returns
    -------
    tuple of int
        The binary expansion of *rank*, most significant bit on line 0 —
        the word at that position of :func:`packed_cube_range`.
    """
    return tuple((rank >> (n - 1 - i)) & 1 for i in range(n))


def packed_first_rank(blocks: np.ndarray, block_start: int = 0) -> int | None:
    """Rank of the first set bit of a per-block word mask, or ``None``.

    Parameters
    ----------
    blocks : numpy.ndarray
        A ``(n_blocks,)`` uint64 mask over cube blocks
        ``[block_start, block_start + n_blocks)``.
    block_start : int, optional
        Cube block of ``blocks[0]``.

    Returns
    -------
    int or None
        The smallest rank whose bit is set.
    """
    nonzero = np.flatnonzero(blocks)
    if nonzero.size == 0:
        return None
    block = int(nonzero[0])
    value = int(blocks[block])
    return (block_start + block) * BLOCK_BITS + ((value & -value).bit_length() - 1)


@allocation_free
def packed_clear_sorted_cube_words(
    mask: np.ndarray, n: int, *, block_start: int = 0
) -> np.ndarray:
    """Clear the bits of the ``n + 1`` sorted inputs from a cube word mask.

    The sorted words of the ``n``-cube are ``0^(n-k) 1^k``, of rank
    ``2**k - 1`` for ``k = 0..n``; every other word is one of the
    ``2**n - n - 1`` unsorted words of Theorem 2.2 (i).  Clearing those
    ``n + 1`` bits restricts a violation mask over the cube to the paper's
    minimum test set in ``n + 1`` scalar updates, without building an
    eligibility mask over the inputs.

    Parameters
    ----------
    mask : numpy.ndarray
        A ``(n_blocks,)`` uint64 mask over cube blocks
        ``[block_start, block_start + n_blocks)`` (the
        :func:`packed_cube_range` layout); updated in place.
    n : int
        Number of lines of the cube.
    block_start : int, optional
        Cube block of ``mask[0]``.

    Returns
    -------
    numpy.ndarray
        *mask*.
    """
    block_stop = block_start + mask.shape[0]
    for k in range(n + 1):
        rank = (1 << k) - 1
        block = rank // BLOCK_BITS
        if block_start <= block < block_stop:
            mask[block - block_start] &= np.uint64(
                _ALL_ONES_INT ^ (1 << (rank % BLOCK_BITS))
            )
    return mask


@allocation_free
def apply_comparators_packed(
    planes: np.ndarray, comparators: Iterable, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a comparator sequence to bit planes in place.

    The low line receives AND (the minimum of 0/1 values) and the high line
    OR (the maximum); a reversed comparator swaps the two.  Mutates and
    returns *planes*.

    Parameters
    ----------
    planes : numpy.ndarray
        ``(n_lines, n_blocks)`` packed planes, updated in place.
    comparators : iterable of Comparator
        Comparators applied in order.
    out : numpy.ndarray, optional
        A ``(n_blocks,)`` scratch row (e.g.
        :func:`repro.core.scratch.comparator_scratch` or a
        :class:`~repro.core.scratch.PlaneArena` row).  With scratch the
        whole sweep runs on ``out=`` ufuncs — one value is staged through
        the scratch row, the other is written into its destination plane
        directly — so no per-comparator arrays are allocated.  Without it
        each comparator allocates its two output planes (the legacy path).
    """
    if out is None:
        for comp in comparators:
            a = planes[comp.low]
            b = planes[comp.high]
            lo = a & b
            hi = a | b
            if comp.reversed:
                lo, hi = hi, lo
            planes[comp.low] = lo
            planes[comp.high] = hi
        return planes
    for comp in comparators:
        a = planes[comp.low]
        b = planes[comp.high]
        # Stage the low-line value through the scratch row, then write the
        # high-line value straight into its plane (aliasing an elementwise
        # ufunc input as its own output is well-defined) and copy the
        # staged value back.
        if comp.reversed:
            np.bitwise_or(a, b, out=out)
            np.bitwise_and(a, b, out=b)
        else:
            np.bitwise_and(a, b, out=out)
            np.bitwise_or(a, b, out=b)
        planes[comp.low] = out
    return planes


def apply_network_packed(
    network: ComparatorNetwork,
    packed: PackedBatch,
    *,
    copy: bool = True,
    scratch: np.ndarray | None = None,
) -> PackedBatch:
    """Evaluate *network* on a packed batch.

    Dispatches to a network's ``apply_packed`` override when one exists (the
    faulty-network subclasses in :mod:`repro.faults.models` provide one);
    networks with an ``apply_batch`` override but no packed override are
    round-tripped through the unpacked engine so the behaviour is always the
    one the network defines.  *scratch* (a ``(n_blocks,)`` row, e.g.
    :func:`repro.core.scratch.comparator_scratch`) is forwarded to
    :func:`apply_comparators_packed` on the generic path so the sweep
    allocates nothing per comparator; overrides ignore it.
    """
    if packed.n_lines != network.n_lines:
        raise InputLengthError(
            f"packed batch has {packed.n_lines} planes but the network has "
            f"{network.n_lines} lines"
        )
    packed_override = getattr(type(network), "apply_packed", None)
    if packed_override is not None:
        return packed_override(network, packed, copy=copy)
    if type(network).apply_batch is not ComparatorNetwork.apply_batch:
        from .evaluation import apply_network_to_batch

        outputs = apply_network_to_batch(network, unpack_batch(packed))
        return pack_batch(outputs, n_lines=network.n_lines)
    result = packed.copy() if copy else packed
    apply_comparators_packed(result.planes, network.comparators, out=scratch)
    return result


@allocation_free
def packed_unsorted_blocks(
    packed: PackedBatch,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    pad: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block uint64 mask with a 1 for every word that is NOT sorted.

    A 0/1 word is unsorted exactly when some line carries 1 while the next
    line carries 0, so the unsorted mask is ``OR_i planes[i] & ~planes[i+1]``
    — one AND-NOT per adjacent line pair over the whole batch.  Padding bits
    are always 0 in the result, so callers can test ``np.any(mask)`` without
    expanding to per-word booleans (the constant-memory streaming path).

    Parameters
    ----------
    packed : PackedBatch
        The batch to judge.
    out : numpy.ndarray, optional
        A ``(n_blocks,)`` destination row (e.g. a
        :class:`~repro.core.scratch.PlaneArena` row).  With *out* the whole
        sweep runs on ``out=`` ufuncs — nothing is allocated; *scratch*
        (a second row) is then required.  Without it each pair allocates
        its intermediates (the legacy path).
    scratch : numpy.ndarray, optional
        A ``(n_blocks,)`` temp row, required alongside *out*.
    pad : numpy.ndarray, optional
        A precomputed pad-mask row
        (:meth:`~repro.core.scratch.PlaneArena.pad_row`); defaults to
        ``packed.pad_mask()``, which allocates one row.
    """
    planes = packed.planes
    n_lines = packed.n_lines
    if out is None:
        unsorted_mask = np.zeros(packed.n_blocks, dtype=_BLOCK_DTYPE)  # repro: noqa RPR001 — legacy path result
        for i in range(n_lines - 1):
            unsorted_mask |= planes[i] & ~planes[i + 1]
        if n_lines > 1:
            unsorted_mask &= packed.pad_mask() if pad is None else pad
        return unsorted_mask
    assert scratch is not None, "packed_unsorted_blocks(out=...) needs scratch="
    out.fill(0)
    for i in range(n_lines - 1):
        np.invert(planes[i + 1], out=scratch)
        np.bitwise_and(planes[i], scratch, out=scratch)
        np.bitwise_or(out, scratch, out=out)
    if n_lines > 1:
        mask = packed.pad_mask() if pad is None else pad
        np.bitwise_and(out, mask, out=out)
    return out


def packed_is_sorted(packed: PackedBatch) -> np.ndarray:
    """Boolean vector: for each word, is it non-decreasing across lines?"""
    num_words = packed.num_words
    if packed.n_lines <= 1:
        return np.ones(num_words, dtype=bool)
    return ~unpack_bits(packed_unsorted_blocks(packed), num_words)


@allocation_free
def packed_is_sorted_arena(
    packed: PackedBatch,
    arena,
    *,
    restrict_to_unsorted_inputs: bool = False,
    block_start: int = 0,
) -> bool:
    """Single verdict: is *every* word of *packed* sorted?  (Arena-backed.)

    The property checkers' violation mask under the
    :class:`~repro.core.scratch.PlaneArena` discipline: the unsorted-word
    mask of :func:`packed_unsorted_blocks` lands in two borrowed arena
    rows (with the arena's cached pad row) instead of fresh plane-sized
    allocations, then reduces to one bool.  Same verdict as
    ``bool(packed_is_sorted(packed).all())``, nothing retained.

    Parameters
    ----------
    packed : PackedBatch
        The batch to judge.
    arena : PlaneArena
        An arena serving the plane geometry of *packed* — or, with
        *block_start*, of the whole batch *packed* is a block range of;
        two rows are acquired and released around the sweep.
    restrict_to_unsorted_inputs : bool, optional
        *packed* holds a network's outputs on the cube (or on a block
        range of it) in rank order (:func:`packed_cube_range`); only the
        outputs of the Theorem 2.2 (i) test words — the unsorted inputs —
        are judged (:func:`packed_clear_sorted_cube_words`).
    block_start : int, optional
        *packed* holds blocks ``[block_start, block_start + n_blocks)``
        of the geometry the arena serves (one chunk of an early-exit
        sweep, see :func:`cube_sweep_spans`): the mask lands in that
        block range of the arena rows.

    Returns
    -------
    bool
        ``True`` when no judged word violates sortedness.
    """
    if packed.n_lines <= 1:
        return True
    block_stop = block_start + packed.n_blocks
    out_slot = arena.acquire()
    scratch_slot = arena.acquire()
    try:
        # The pad row of the whole geometry: only its last block can hold
        # padding, and a range reaches that block only as the last chunk.
        pad = arena.pad_row(block_start * BLOCK_BITS + packed.num_words)
        mask = packed_unsorted_blocks(
            packed,
            out=arena.plane(out_slot)[block_start:block_stop],
            scratch=arena.plane(scratch_slot)[block_start:block_stop],
            pad=pad[block_start:block_stop],
        )
        if restrict_to_unsorted_inputs:
            packed_clear_sorted_cube_words(
                mask, packed.n_lines, block_start=block_start
            )
        return not bool(mask.any())
    finally:
        arena.release(scratch_slot)
        arena.release(out_slot)


@allocation_free
def packed_zero_count_planes(
    packed: PackedBatch,
    *,
    out: Sequence[np.ndarray] | np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
    pad: np.ndarray | None = None,
) -> Sequence[np.ndarray] | np.ndarray:
    """Bit-sliced per-word count of *zero* lines (a vertical popcount).

    Returns ``m = max(1, n_lines.bit_length())`` counter planes, least
    significant first: bit ``w`` of ``counter[j]`` is bit ``j`` of the
    number of 0-valued lines of word ``w``.  Each line is added with a
    ripple-carry over the counter planes, so the whole batch is counted in
    ``O(n_lines * log n_lines)`` bitwise block operations — this is what
    lets the ``(k, n)``-selection check stay fully packed instead of
    round-tripping through the unpacked engine.

    Padding bits of every counter plane are 0 (padding words count zero
    zeroes).

    Parameters
    ----------
    packed : PackedBatch
        The batch whose zero lines are counted.
    out : sequence of numpy.ndarray or numpy.ndarray, optional
        ``m`` destination rows (a ``(m, n_blocks)`` array or a list of
        arena rows).  With *out* the whole count runs on ``out=`` ufuncs —
        nothing is allocated; *scratch* is then required.
    scratch : tuple of numpy.ndarray, optional
        Two ``(n_blocks,)`` temp rows ``(carry, tmp)``, required with *out*.
    pad : numpy.ndarray, optional
        A precomputed pad-mask row; defaults to ``packed.pad_mask()``.
    """
    m = max(1, packed.n_lines.bit_length())
    pad_mask = packed.pad_mask() if pad is None else pad
    if out is None:
        counter = np.zeros((m, packed.n_blocks), dtype=_BLOCK_DTYPE)  # repro: noqa RPR001 — legacy path result
        for i in range(packed.n_lines):
            carry = ~packed.planes[i] & pad_mask
            for j in range(m):
                counter[j], carry = counter[j] ^ carry, counter[j] & carry
        return counter
    assert scratch is not None, "packed_zero_count_planes(out=...) needs scratch="
    carry, tmp = scratch
    for row in out:
        row.fill(0)
    for i in range(packed.n_lines):
        np.invert(packed.planes[i], out=carry)
        np.bitwise_and(carry, pad_mask, out=carry)
        for j in range(m):
            np.bitwise_and(out[j], carry, out=tmp)
            np.bitwise_xor(out[j], carry, out=out[j])
            np.copyto(carry, tmp)
    return out


@allocation_free
def packed_count_gt_blocks(
    counter: Sequence[np.ndarray] | np.ndarray,
    threshold: int,
    pad_mask: np.ndarray,
    *,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-block uint64 mask: is the bit-sliced count > *threshold*?

    ``counter`` holds ``m`` LSB-first planes as produced by
    :func:`packed_zero_count_planes`; the comparison against the constant is
    one masked sweep from the most significant plane down.

    Parameters
    ----------
    counter : sequence of numpy.ndarray or numpy.ndarray
        The counter planes.
    threshold : int
        The constant compared against.
    pad_mask : numpy.ndarray
        Per-block valid-word mask.
    out : numpy.ndarray, optional
        A ``(n_blocks,)`` destination row; with *out* the sweep runs on
        ``out=`` ufuncs (no allocation) and *scratch* is required.
    scratch : tuple of numpy.ndarray, optional
        Two ``(n_blocks,)`` temp rows ``(eq, tmp)``, required with *out*.
    """
    m = len(counter)
    if out is None:
        if threshold < 0:
            return pad_mask.copy()  # repro: noqa RPR001 — legacy path result
        if threshold >> m:
            # The counter cannot represent any value above the threshold.
            return np.zeros(pad_mask.shape[0], dtype=_BLOCK_DTYPE)  # repro: noqa RPR001 — legacy path result
        gt = np.zeros(pad_mask.shape[0], dtype=_BLOCK_DTYPE)  # repro: noqa RPR001 — legacy path result
        eq = pad_mask.copy()  # repro: noqa RPR001 — legacy path temp
        for j in range(m - 1, -1, -1):
            if (threshold >> j) & 1:
                eq &= counter[j]
            else:
                gt |= eq & counter[j]
                eq &= ~counter[j]
        return gt
    assert scratch is not None, "packed_count_gt_blocks(out=...) needs scratch="
    eq, tmp = scratch
    if threshold < 0:
        np.copyto(out, pad_mask)
        return out
    out.fill(0)
    if threshold >> m:
        # The counter cannot represent any value above the threshold.
        return out
    np.copyto(eq, pad_mask)
    for j in range(m - 1, -1, -1):
        if (threshold >> j) & 1:
            np.bitwise_and(eq, counter[j], out=eq)
        else:
            # gt |= eq & counter[j]; eq &= ~counter[j] — the second update
            # reuses the AND already in tmp (eq & ~c == eq ^ (eq & c)).
            np.bitwise_and(eq, counter[j], out=tmp)
            np.bitwise_or(out, tmp, out=out)
            np.bitwise_xor(eq, tmp, out=eq)
    return out


@allocation_free
def packed_selection_violation_blocks(
    inputs: PackedBatch,
    outputs: PackedBatch,
    k: int,
    *,
    restrict_to_test_words: bool = False,
    arena: PlaneArena | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block uint64 mask of words on which ``(k, n)``-selection fails.

    For a 0/1 word with ``z`` zeroes the ``i``-th smallest value is 0 for
    ``i < z`` and 1 otherwise, so output line ``i < k`` must equal
    ``[z <= i]`` — checked entirely on the bit planes via the vertical zero
    counter, with no unpacking.  *inputs* must be the pre-network batch and
    *outputs* the corresponding post-network batch (same block layout).

    With ``restrict_to_test_words=True`` only words of the paper's
    ``T_k^n`` test set (unsorted inputs with at most ``k`` zeroes) can
    report a violation, which makes the streamed check agree exactly with
    the ``strategy="testset"`` verdict.

    Parameters
    ----------
    inputs, outputs : PackedBatch
        Pre-/post-network packed batches (same block layout).
    k : int
        Selection order.
    restrict_to_test_words : bool, optional
        Restrict eligibility to the paper's ``T_k^n`` test words.
    arena : PlaneArena, optional
        Scratch arena for the counter planes and sweep temporaries; with
        *arena* the whole check allocates nothing and *out* is required.
        The arena must serve the batch geometry
        (``(n_lines, n_blocks)``).
    out : numpy.ndarray, optional
        A ``(n_blocks,)`` destination row (e.g. an arena row the caller
        acquired), required with *arena*.
    """
    if arena is None:
        pad = inputs.pad_mask()
        counter = packed_zero_count_planes(inputs, pad=pad)
        violation = np.zeros(inputs.n_blocks, dtype=_BLOCK_DTYPE)  # repro: noqa RPR001 — legacy path result
        for i in range(min(k, outputs.n_lines)):
            gt = packed_count_gt_blocks(counter, i, pad)
            # Desired: outputs[i] == ~gt on every valid word.
            violation |= ~(outputs.planes[i] ^ gt) & pad
        if restrict_to_test_words:
            eligible = packed_unsorted_blocks(inputs) & ~packed_count_gt_blocks(
                counter, k, pad
            )
            violation &= eligible
        return violation
    assert out is not None, "packed_selection_violation_blocks(arena=...) needs out="
    m = max(1, inputs.n_lines.bit_length())
    pad = arena.pad_row(inputs.num_words)
    slots = [arena.acquire() for _ in range(m + 4)]
    counter = [arena.plane(s) for s in slots[:m]]
    carry = arena.plane(slots[m])
    tmp = arena.plane(slots[m + 1])
    gt = arena.plane(slots[m + 2])
    eq = arena.plane(slots[m + 3])
    packed_zero_count_planes(inputs, out=counter, scratch=(carry, tmp), pad=pad)
    out.fill(0)
    for i in range(min(k, outputs.n_lines)):
        packed_count_gt_blocks(counter, i, pad, out=gt, scratch=(eq, tmp))
        # Desired: outputs[i] == ~gt on every valid word.
        np.bitwise_xor(outputs.planes[i], gt, out=tmp)
        np.invert(tmp, out=tmp)
        np.bitwise_and(tmp, pad, out=tmp)
        np.bitwise_or(out, tmp, out=out)
    if restrict_to_test_words:
        packed_count_gt_blocks(counter, k, pad, out=gt, scratch=(eq, tmp))
        packed_unsorted_blocks(inputs, out=carry, scratch=tmp, pad=pad)
        np.invert(gt, out=gt)
        np.bitwise_and(carry, gt, out=carry)
        np.bitwise_and(out, carry, out=out)
    for s in slots:
        arena.release(s)
    return out


def packed_equal(a: PackedBatch, b: PackedBatch) -> np.ndarray:
    """Boolean vector: for each word index, do the two batches agree?"""
    if a.planes.shape != b.planes.shape or a.num_words != b.num_words:
        raise InputLengthError(
            f"cannot compare packed batches of shapes {a.planes.shape} "
            f"({a.num_words} words) and {b.planes.shape} ({b.num_words} words)"
        )
    if a.n_lines == 0:
        return np.ones(a.num_words, dtype=bool)
    differ = np.zeros(a.n_blocks, dtype=_BLOCK_DTYPE)
    for i in range(a.n_lines):
        differ |= a.planes[i] ^ b.planes[i]
    return ~unpack_bits(differ, a.num_words)
