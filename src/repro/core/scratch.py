"""Scratch-plane arena for allocation-free bit-packed fault simulation.

The pruned difference-form fault simulator (:mod:`repro.faults.simulation`)
propagates per-line *error planes* through the suffix of the network.  The
original implementation allocated a fresh uint64 plane for every bitwise
operation of every suffix stage — two to six ``n_blocks``-word arrays per
comparator per fault, which the allocator (not the ALU) ends up dominating
once the logic itself is a handful of AND/XOR block operations.

:class:`PlaneArena` removes that traffic: it owns one pool of scratch
planes — an error/temp store of ``2 * n_lines`` rows (one error plane and
one in-flight temporary per line) plus a few extra rows for the
row-reconstruction sweeps — together with a *dirty-line index* mapping each
currently-diverged line to the pool row holding its error plane.  The hot
loop then runs entirely on ``out=`` ufuncs against pool rows: a comparator
acquires two free rows, writes its outputs into them with
``np.bitwise_and(..., out=...)`` / ``np.bitwise_xor(..., out=...)``, and
recycles the rows of the planes it consumed.  Swapping which line owns
which plane is a slot-index update, never a copy.

Every fault-simulation call takes its scratch from :func:`shared_arena`,
whether it comes from a :class:`repro.api.Session` or a free function,
serially or in a pool worker: a per-thread cache of at most
:data:`_CACHE_CAP` arenas keyed by ``(n_lines, n_blocks)``, so one arena
serves *all* faults of a run and every later chunk and call of its
geometry, and no two threads ever share one.  :meth:`PlaneArena.reset`
between faults is an ``O(n_lines)`` index wipe; no memory is touched.

The arena is also the home of the value-plane scratch used by the
allocation-free ``PrefixStates.state_after(..., out=...)`` reconstruction,
the single-row comparator scratch consumed by
:func:`repro.core.bitpacked.apply_comparators_packed`, and the *fault
stack* (:class:`FaultStack`, :meth:`PlaneArena.fault_stack`): the working
set of the stacked fault kernel, which carries up to
:data:`STACK_BYTES` worth of faults' error planes through the network at
once.  The stack is allocated on first use and reused across stacks,
chunks and calls of the geometry.

Examples
--------
>>> from repro.core.scratch import PlaneArena
>>> arena = PlaneArena(4, 2)
>>> slot = arena.acquire()
>>> arena.plane(slot).shape
(2,)
>>> arena.set_error(1, slot)
>>> sorted(arena.error_planes())
[1]
>>> arena.reset()
>>> arena.error_planes()
{}
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import TypeVar

import numpy as np

__all__ = [
    "STACK_BYTES",
    "FaultStack",
    "PlaneArena",
    "shared_arena",
    "comparator_scratch",
    "allocation_free",
    "allocation_free_functions",
]

#: Default block dtype — mirrors ``repro.core.bitpacked._BLOCK_DTYPE``
#: (explicit little-endian uint64).
_BLOCK_DTYPE = np.dtype("<u8")

#: All-ones uint64 block (every word position set).
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_F = TypeVar("_F", bound=Callable[..., object])

#: Every function decorated with :func:`allocation_free`, in decoration
#: order.  The sanitizer test suite enumerates this to prove each entry
#: has a runtime allocation check; keep it in sync is automatic — the
#: decorator appends here.
_ALLOCATION_FREE: list[Callable[..., object]] = []


def allocation_free(func: _F) -> _F:
    """Mark a hot-path function as allocation-free on its scratch path.

    The contract: when the function is given its scratch resources (a
    :class:`PlaneArena`, an ``out=`` destination, a scratch row — whatever
    its signature takes), steady-state calls perform **no plane-sized
    allocations**: every bitwise step runs through ``out=`` ufuncs against
    caller- or arena-owned storage, and any allocation left is a small
    constant (Python objects, an unpacked boolean result row) independent
    of ``n_blocks``.  Functions that also keep a legacy allocating branch
    (selected by omitting the scratch resources) annotate that branch's
    allocation sites with ``# repro: noqa RPR001``.

    The decorator itself is zero-cost — it tags the function and records
    it, returning it unchanged (no wrapper, no per-call overhead):

    * statically, :mod:`repro.devtools` rule **RPR001** scans the bodies of
      decorated functions for allocating numpy calls;
    * dynamically, :func:`repro.devtools.sanitize.assert_allocation_free`
      verifies a steady-state call allocates nothing, and the test suite
      covers every function registered here.
    """
    func.__allocation_free__ = True  # type: ignore[attr-defined]
    _ALLOCATION_FREE.append(func)
    return func


def allocation_free_functions() -> tuple[Callable[..., object], ...]:
    """Every function decorated with :func:`allocation_free` so far.

    Returns
    -------
    tuple of callable
        Decoration-ordered snapshot of the registry (import the modules
        whose functions you expect to see before calling this).
    """
    return tuple(_ALLOCATION_FREE)

#: Extra pool rows beyond the ``2 * n_lines`` error/temp store: head-room
#: for the detection-row reconstruction sweeps, which hold up to four
#: temporaries while every line may still own a live error plane.
_EXTRA_SLOTS = 4

#: Byte budget of a :class:`FaultStack`'s error planes: the stack height
#: is this budget divided by one fault's ``n_lines × n_blocks`` planes (at
#: least 1), so small planes stack many faults and cube-sized planes few.
STACK_BYTES = 1 << 20

#: Cap on each thread's :func:`shared_arena` cache (distinct
#: ``(n_lines, n_blocks)`` shapes kept alive at once).
_CACHE_CAP = 8

#: Holds one ``{(n_lines, n_blocks): PlaneArena}`` cache per thread: an
#: arena is mutable scratch, so threads of one process (the verification
#: service's Session pool) must never be handed the same one.
_SHARED_ARENAS = threading.local()


class FaultStack:
    """The working set of the stacked fault kernel.

    Parameters
    ----------
    n_lines, height, n_blocks : int
        Lines per fault, faults per stack and blocks per plane.
    dtype : numpy.dtype
        Block dtype.

    Attributes
    ----------
    errors : numpy.ndarray
        ``(n_lines, height, n_blocks)`` error planes: ``errors[line, run]``
        is the XOR of run ``run``'s faulty plane with the fault-free one,
        all-zero exactly when the line is clean.
    dirty : numpy.ndarray
        ``(n_lines, height)`` boolean per-run dirty masks (``errors`` row
        non-zero).
    temps : numpy.ndarray
        ``(4, height, n_blocks)`` temporaries: gathered error rows and
        fault-free planes copied out to the gathered rows' shape (a ufunc
        that broadcasts one plane over many rows runs through numpy's
        iterator buffers, which allocate up to 64 KiB per call).
    evaluated : numpy.ndarray
        ``(height,)`` stages each run evaluated in the last sweep.
    active, nonzero, peak : numpy.ndarray
        Per-run work vectors of a sweep (active runs, non-zero output
        rows, row maxima).
    clean : bool
        Are ``errors`` and ``dirty`` all-zero?  A sweep starts from a
        clean stack and :meth:`clear` restores it by zeroing only the
        dirty rows, so no sweep pays for a full wipe.
    """

    __slots__ = (
        "height", "errors", "dirty", "temps", "active", "nonzero", "peak",
        "evaluated", "clean", "_line_views",
    )

    def __init__(
        self, n_lines: int, height: int, n_blocks: int, dtype: np.dtype
    ) -> None:
        self.height = height
        self.errors = np.zeros((n_lines, height, n_blocks), dtype=dtype)
        self.dirty = np.zeros((n_lines, height), dtype=bool)
        self.temps = np.zeros((4, height, n_blocks), dtype=dtype)
        # Small per-run work vectors (one entry per stacked fault).
        self.active = np.zeros(height, dtype=bool)
        self.nonzero = np.zeros((2, height), dtype=bool)
        self.peak = np.zeros((2, height), dtype=dtype)
        self.evaluated = np.zeros(height, dtype=np.int64)
        self.clean = True
        self._line_views: tuple[int, list[np.ndarray], list[np.ndarray]] = (
            -1, [], []
        )

    def line_views(self, h: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-line ``(errors[line, :h], dirty[line, :h])`` views (cached
        for the last *h*, so a sweep indexes plain lists)."""
        cached_h, errs, dirty = self._line_views
        if cached_h != h:
            errs = list(self.errors[:, :h])
            dirty = list(self.dirty[:, :h])
            self._line_views = (h, errs, dirty)
        return errs, dirty

    def clear(self, h: int) -> None:
        """Zero the dirty rows of the first *h* runs, leaving a clean stack."""
        dirty = self.dirty[:, :h]
        self.errors[:, :h][dirty] = 0
        dirty.fill(False)
        self.clean = True


class PlaneArena:
    """A reusable pool of packed scratch planes plus a dirty-line index.

    Parameters
    ----------
    n_lines : int
        Number of network lines the arena serves.
    n_blocks : int
        Packed blocks per plane (``ceil(num_words / 64)``).
    dtype : numpy.dtype, optional
        Block dtype; defaults to the bit-packed engine's little-endian
        uint64.

    Attributes
    ----------
    store : numpy.ndarray
        The ``(2 * n_lines + 4, n_blocks)`` error/temp plane pool.  Rows
        are handed out through :meth:`acquire`; a row's content is only
        meaningful while it is held.
    state : numpy.ndarray
        A ``(n_lines, n_blocks)`` value-plane scratch for full-state
        reconstruction (``PrefixStates.state_after(..., out=arena.state)``).
    tmp : numpy.ndarray
        One ``(n_blocks,)`` row used as comparator scratch by
        :func:`repro.core.bitpacked.apply_comparators_packed`.
    zero : numpy.ndarray
        A read-only all-zero plane (the forced plane of a stuck-at-0 line).
        Callers must never write through it.
    err_slot : dict of int to int
        The dirty-line index: maps a line to the pool row holding its
        current error plane.  Lines absent from the mapping are *clean*.

    Notes
    -----
    The pool is sized so the pruned simulator can never run dry: at most
    ``n_lines`` rows are owned by error planes while a comparator holds two
    in-flight temporaries and a stuck-line re-check holds one more; the
    reconstruction sweeps hold at most four on top of the live error
    planes.

    Examples
    --------
    >>> arena = PlaneArena(2, 1)
    >>> arena.store.shape
    (8, 1)
    """

    def __init__(
        self, n_lines: int, n_blocks: int, dtype: np.dtype = _BLOCK_DTYPE
    ) -> None:
        self._allocate(n_lines, n_blocks, np.dtype(dtype))

    def _allocate(self, n_lines: int, n_blocks: int, dtype: np.dtype) -> None:
        self.n_lines = n_lines
        self.n_blocks = n_blocks
        self.dtype = dtype
        self.store = np.zeros((2 * n_lines + _EXTRA_SLOTS, n_blocks), dtype=dtype)
        # Persistent row views: indexing a list is cheaper than re-slicing
        # the store on every access in the simulator's hot loop.
        self.views: list[np.ndarray] = list(self.store)
        self.state = np.zeros((n_lines, n_blocks), dtype=dtype)
        self.tmp = np.zeros(n_blocks, dtype=dtype)
        self.zero = np.zeros(n_blocks, dtype=dtype)
        self._pad = np.zeros(n_blocks, dtype=dtype)
        self._pad_tail = -1
        self.err_slot: dict[int, int] = {}
        self._free = list(range(self.store.shape[0]))
        self._stack: FaultStack | None = None

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------
    def acquire(self) -> int:
        """Check a free pool row out; returns its index.

        Returns
        -------
        int
            Index of a row of :attr:`store` now owned by the caller.
        """
        return self._free.pop()

    def release(self, slot: int) -> None:
        """Return a row checked out with :meth:`acquire` to the pool."""
        self._free.append(slot)

    def plane(self, slot: int) -> np.ndarray:
        """The ``(n_blocks,)`` plane view behind a slot index."""
        return self.views[slot]

    # ------------------------------------------------------------------
    # Dirty-line index
    # ------------------------------------------------------------------
    def set_error(self, line: int, slot: int) -> None:
        """Make *slot* the error plane of *line*, recycling any old slot."""
        old = self.err_slot.get(line)
        if old is not None:
            self._free.append(old)
        self.err_slot[line] = slot

    def clear_error(self, line: int) -> None:
        """Mark *line* clean, recycling its slot (no-op when already clean)."""
        old = self.err_slot.pop(line, None)
        if old is not None:
            self._free.append(old)

    def error_planes(self) -> dict[int, np.ndarray]:
        """The dirty lines as a ``{line: error_plane_view}`` mapping.

        Returns
        -------
        dict of int to numpy.ndarray
            Views into :attr:`store`; valid until the next :meth:`reset`.
        """
        return {line: self.views[slot] for line, slot in self.err_slot.items()}

    def pad_row(self, num_words: int) -> np.ndarray:
        """The cached valid-word mask row for a *num_words* batch.

        Equivalent to ``PackedBatch.pad_mask()`` (a 1 for every valid word
        position, padding bits 0) but backed by one arena-owned row that is
        only rewritten when the partial last block changes — repeated calls
        on the stable chunk geometry of a streamed run allocate nothing.
        Callers must not write through the returned view.

        Returns
        -------
        numpy.ndarray
            The ``(n_blocks,)`` pad-mask row.
        """
        tail = num_words % 64
        if self._pad_tail != tail:
            pad = self._pad
            pad.fill(_ALL_ONES)
            if self.n_blocks and tail:
                pad[-1] = np.uint64((1 << tail) - 1)
            self._pad_tail = tail
        return self._pad

    def stack_height(self) -> int:
        """Most faults per :class:`FaultStack`: :data:`STACK_BYTES` over
        one fault's ``n_lines × n_blocks`` planes, at least 1."""
        per_fault = self.n_lines * self.n_blocks * self.dtype.itemsize
        return max(1, STACK_BYTES // per_fault) if per_fault else 1

    def fault_stack(self, runs: int) -> FaultStack:
        """The arena's fault stack for a call of *runs* kernel runs.

        Allocated on first use and reused by later calls of the geometry;
        its height is :meth:`stack_height`, or the most runs a call has
        needed so far when that is fewer — a small fault universe never
        holds a full budget of planes (a lower budget reallocates once).

        Returns
        -------
        FaultStack
            The stack working set for this arena's geometry.
        """
        cap = self.stack_height()
        height = min(cap, max(1, runs))
        stack = self._stack
        if stack is None or not height <= stack.height <= cap:
            stack = self._stack = FaultStack(
                self.n_lines, height, self.n_blocks, self.dtype
            )
        return stack

    def reset(self) -> None:
        """Drop every checked-out slot and dirty line (``O(n_lines)``).

        The plane *contents* are not touched — every consumer writes its
        slots before reading them.
        """
        self.err_slot.clear()
        free = self._free
        free.clear()
        free.extend(range(self.store.shape[0]))


def shared_arena(
    n_lines: int, n_blocks: int, dtype: np.dtype = _BLOCK_DTYPE
) -> PlaneArena:
    """A thread-local arena for this plane geometry (reset, never copied).

    The one scratch source of the bit-packed paths.  Arenas are cached per
    ``(n_lines, n_blocks)`` key, so serial calls, Sessions and the workers
    of the sharded fault simulator reuse one long-lived arena per chunk
    shape instead of reallocating between chunks, tiles and calls.  The
    cache holds at most :data:`_CACHE_CAP` shapes; the least recently
    created entry is evicted beyond that.  Each thread has its own cache,
    so concurrent threads (e.g. one Session driven from several threads,
    or the verification service's pool) never share or reset each
    other's scratch.  Resetting is why code that holds rows of an arena
    must not call code that resolves the same geometry again.

    Returns
    -------
    PlaneArena
        A reset arena serving ``(n_lines, n_blocks)`` planes.
    """
    arenas = getattr(_SHARED_ARENAS, "by_shape", None)
    if arenas is None:
        arenas = _SHARED_ARENAS.by_shape = {}
    key = (n_lines, n_blocks)
    arena = arenas.get(key)
    if arena is None or arena.dtype != np.dtype(dtype):
        if len(arenas) >= _CACHE_CAP:
            arenas.pop(next(iter(arenas)))
        arena = PlaneArena(n_lines, n_blocks, np.dtype(dtype))
        arenas[key] = arena
    else:
        arena.reset()
    return arena


def comparator_scratch(n_blocks: int, dtype: np.dtype = _BLOCK_DTYPE) -> np.ndarray:
    """A thread-local ``(n_blocks,)`` comparator scratch row.

    The single temporary :func:`repro.core.bitpacked.apply_comparators_packed`
    needs to evaluate a comparator without allocating; backed by the same
    cache as :func:`shared_arena` (key ``(0, n_blocks)`` — no error planes).

    Returns
    -------
    numpy.ndarray
        A reusable ``(n_blocks,)`` array of *dtype*.
    """
    return shared_arena(0, n_blocks, dtype).tmp
