"""Sharding the fault and vector axes of the bit-packed fault simulator.

Single faults are embarrassingly parallel once the fault-free packed prefix
states exist: every fault restarts from the prefix at its fault site and
re-evaluates only its suffix.  Two work shapes live here:

* **Fault-axis shard** (vector batch fits one chunk).  The parent packs the
  test vectors and records the delta-compressed prefix states
  (:class:`repro.faults.simulation.PrefixStates`) **once**, publishes the
  packed input planes, the per-comparator deltas and a zeroed detection
  matrix through POSIX shared memory (:mod:`repro.parallel.shm`), and hands
  each worker a ``[start, stop)`` slice of the fault list; the worker
  rebuilds the (tiny) last-writer table locally and fills
  ``matrix[start:stop]`` in place, so no bulk data is ever pickled per
  task — only the small span tuples.

* **2-D (faults × vector-chunks) grid** (streamed vector axis).  When the
  vector axis is larger than one chunk — an explicit batch above
  ``chunk_size``, or the exhaustive cube passed as
  :class:`repro.faults.simulation.CubeVectors` — the work splits into
  (fault-slice × vector-chunk) tiles.  Each worker *regenerates* its own
  packed chunk (via :func:`repro.core.bitpacked.packed_cube_range` for the
  cube — zero input transfer — or by packing a slice of the shared raw
  vector array), builds the chunk's prefix states locally (cached between
  consecutive tiles of the same chunk), and fills either its column slice
  of the shared matrix or its column of a per-chunk any-reduction
  accumulator.  Any-reduction tiles seed their verdicts from the columns
  already published by other chunks, so faults detected earlier are
  dropped exactly as in the serial streamed path (the OR is monotone — an
  unsynchronised read can only under-drop, never change the result).
  Peak memory per process is bounded by the chunk size at any ``n``.

Every bit-packed worker owns a **worker-local scratch arena**
(:class:`repro.core.scratch.PlaneArena`, resolved through the
thread-local :func:`repro.core.scratch.shared_arena` cache keyed by the
``(n_lines, n_blocks)`` chunk geometry): between the tiles a worker
executes it is reset, never reallocated, so the pruned hot loop runs
allocation-free inside every process exactly as it does serially.

For the non-bit-packed engines there is a generic fallback that runs the
requested serial engine on each fault slice (no prefix sharing, but the
same shared output matrix).  Either way the result is bit-identical to the
single-process engine, and dominated-state pruning counters
(:class:`repro.faults.simulation.SimulationStats`) are merged back from the
workers.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from itertools import count
import pickle

import numpy as np

from ..core.bitpacked import BLOCK_BITS
from ..core.network import ComparatorNetwork
from ..faults.models import Fault
from .chunking import chunk_spans, cube_block_spans, grid_tiles, shard_spans
from .config import ExecutionConfig, resolve_config
from .shm import SharedArray, SharedSpec, attach_shared_array, create_shared_array

__all__ = ["sharded_fault_detection_matrix"]

#: Per-worker state installed by the pool initializer (each worker process
#: gets its own copy; the shared arrays are attached, not copied).
_WORKER: dict[str, object] = {}

#: Parent-side run tokens for persistent-pool task batches (workers only
#: ever compare tokens, never generate them, so a plain counter suffices).
_RUN_TOKENS = count(1)


class _PooledTask:
    """Task wrapper installing per-run worker state on a persistent pool.

    A persistent :class:`repro.parallel.pool.WorkerPool` cannot use the
    ``initializer=`` mechanism — initializers run once per worker
    *process*, not once per run, and the shared-memory specs change every
    run.  Instead the run's init arguments are pickled **once** into a
    shared-memory blob and each task carries only the blob's spec plus a
    unique run token: the first task of a run a given worker executes
    attaches the blob, unpickles the arguments and installs the state
    (attach shared arrays, rebuild the small writer tables); later tasks
    of the same run see the matching token and skip straight to the work
    item.  Runs never interleave on a pool (calls are sequential in the
    parent), so overwriting the previous run's state is safe.
    """

    def __init__(
        self,
        run_fn: Callable,
        init_fn: Callable,
        token: int,
        blob_spec: SharedSpec,
    ) -> None:
        self.run_fn = run_fn
        self.init_fn = init_fn
        self.token = token
        self.blob_spec = blob_spec

    def __call__(self, item):
        """Install this run's worker state if needed, then run the item."""
        if _WORKER.get("run_token") != self.token:
            blob = attach_shared_array(self.blob_spec)
            try:
                initargs = pickle.loads(blob.array.tobytes())
            finally:
                blob.close()
            self.init_fn(*initargs)
            _WORKER["run_token"] = self.token
        return self.run_fn(item)


def _map_work(
    cfg: ExecutionConfig,
    workers: int,
    init_fn: Callable,
    initargs: tuple,
    run_fn: Callable,
    items: Sequence,
) -> list:
    """Map ``run_fn`` over work items on an ephemeral or persistent pool.

    Without :attr:`ExecutionConfig.pool` this is the classic shape — an
    ephemeral :class:`~concurrent.futures.ProcessPoolExecutor` whose
    initializer installs the worker state once per process.  With a
    persistent pool the state rides along with the tasks instead
    (:class:`_PooledTask`, one shared-memory pickle of *initargs* per run,
    a few bytes per task) and the executor survives the call.
    """
    if cfg.pool is not None:
        payload = pickle.dumps(initargs, protocol=pickle.HIGHEST_PROTOCOL)
        blob = create_shared_array((len(payload),), np.uint8)
        blob.array[...] = np.frombuffer(payload, dtype=np.uint8)
        try:
            task = _PooledTask(run_fn, init_fn, next(_RUN_TOKENS), blob.spec)
            return list(cfg.pool.executor().map(task, items))
        finally:
            blob.unlink()
    with ProcessPoolExecutor(
        max_workers=workers, initializer=init_fn, initargs=initargs
    ) as pool:
        return list(pool.map(run_fn, items))


def _init_bitpacked_worker(
    network: ComparatorNetwork,
    faults: list[Fault],
    criterion: str,
    prune: bool,
    use_arena: bool,
    num_words: int,
    input_spec,
    deltas_spec,
    matrix_spec,
) -> None:
    from ..faults.simulation import PrefixStates

    _WORKER["faults"] = faults
    _WORKER["criterion"] = criterion
    _WORKER["network"] = network
    _WORKER["prune"] = prune
    _WORKER["use_arena"] = use_arena
    input_shared = attach_shared_array(input_spec)
    deltas_shared = attach_shared_array(deltas_spec)
    # Keep the handles alive: the PrefixStates views borrow their buffers.
    _WORKER["input"] = input_shared
    _WORKER["deltas"] = deltas_shared
    _WORKER["prefix"] = PrefixStates(
        network, input_shared.array, deltas_shared.array, num_words
    )
    _WORKER["matrix"] = attach_shared_array(matrix_spec)


def _worker_arena(network: ComparatorNetwork, prefix):
    """This worker's scratch arena for the current chunk geometry.

    Resolved through :func:`repro.core.scratch.shared_arena`, whose
    thread-local cache keyed by ``(n_lines, n_blocks)`` makes the arena
    *worker-local*: it is reset — never reallocated — between the tiles a
    worker executes at a stable chunk geometry (only the uneven tail chunk
    triggers a second allocation).  Returns ``False`` (the legacy
    allocating path marker) when the run disabled arenas.
    """
    if not _WORKER.get("use_arena", True):
        return False
    from ..core.scratch import shared_arena

    planes = prefix.input_planes
    return shared_arena(network.n_lines, planes.shape[1], planes.dtype)


def _ship_counters(stats) -> tuple[int, ...]:
    """Worker-side half of the counter aggregation path: the tile's
    :class:`repro.faults.simulation.SimulationStats` counters packed into
    the :meth:`repro.observe.Metrics.pack` wire tuple (picklable,
    bit-exact).  The parent folds these back with
    :func:`_merge_shipped`; the same tuple format is what cache verdict
    memos replay, so every aggregation route shares one schema.
    """
    return stats.metrics.pack()


def _merge_shipped(stats, all_counts) -> None:
    """Parent-side half of the counter aggregation path: fold every
    worker's :func:`_ship_counters` tuple into the caller's stats via
    :meth:`repro.observe.Metrics.merge_packed` (no-op without stats).
    """
    if stats is None:
        return
    for counts in all_counts:
        stats.metrics.merge_packed(counts)


def _run_bitpacked_span(span: tuple[int, int]) -> tuple[int, ...]:
    from ..faults.simulation import SimulationStats, _fault_rows

    start, stop = span
    network: ComparatorNetwork = _WORKER["network"]  # type: ignore[assignment]
    faults: list[Fault] = _WORKER["faults"]  # type: ignore[assignment]
    matrix: SharedArray = _WORKER["matrix"]  # type: ignore[assignment]
    prefix = _WORKER["prefix"]
    stats = SimulationStats()
    _fault_rows(
        network,
        faults[start:stop],
        prefix,  # type: ignore[arg-type]
        str(_WORKER["criterion"]),
        matrix.array[start:stop],
        prune=bool(_WORKER["prune"]),
        stats=stats,
        arena=_worker_arena(network, prefix),
    )
    return _ship_counters(stats)


def _init_grid_worker(
    network: ComparatorNetwork,
    faults: list[Fault],
    criterion: str,
    prune: bool,
    use_arena: bool,
    cube_n: int,
    raw_spec,
    chunks: list[tuple[int, int, int]],
    out_spec,
    reduce: str,
    use_cache: bool = False,
    base_token: tuple | None = None,
) -> None:
    _WORKER["network"] = network
    _WORKER["faults"] = faults
    _WORKER["criterion"] = criterion
    _WORKER["prune"] = prune
    _WORKER["use_arena"] = use_arena
    _WORKER["cube_n"] = cube_n
    _WORKER["chunks"] = chunks
    _WORKER["reduce"] = reduce
    _WORKER["raw"] = attach_shared_array(raw_spec) if raw_spec is not None else None
    _WORKER["out"] = attach_shared_array(out_spec)
    _WORKER["chunk_cache"] = None
    _WORKER["use_cache"] = use_cache
    _WORKER["base_token"] = base_token


def _grid_chunk_prefix(chunk_index: int):
    """The (cached) prefix states of one vector chunk, built locally.

    With caching enabled the worker consults its own process-local
    :func:`repro.cache.default_cache` through the incremental front end,
    so repeated runs against a warm pool reuse prefix states across
    calls; either way a one-entry memo keeps the current chunk's record
    alive between the fault tiles that share it.
    """
    from ..cache.restore import acquire_prefix_states
    from ..core.bitpacked import pack_batch, packed_cube_range

    cached = _WORKER.get("chunk_cache")
    if cached is not None and cached[0] == chunk_index:  # type: ignore[index]
        return cached[1]  # type: ignore[index]
    network: ComparatorNetwork = _WORKER["network"]  # type: ignore[assignment]
    chunks: list[tuple[int, int, int]] = _WORKER["chunks"]  # type: ignore[assignment]
    word_start, lo, hi = chunks[chunk_index]
    cube_n = int(_WORKER["cube_n"])  # type: ignore[arg-type]
    if cube_n >= 0:
        packed = packed_cube_range(cube_n, lo, hi)
    else:
        raw: SharedArray = _WORKER["raw"]  # type: ignore[assignment]
        packed = pack_batch(raw.array[lo:hi], n_lines=network.n_lines)
    cache = token = None
    base_token = _WORKER.get("base_token")
    if _WORKER.get("use_cache") and base_token is not None:
        from ..cache.store import default_cache

        cache = default_cache()
        token = (*base_token, word_start, packed.num_words)
    prefix = acquire_prefix_states(network, packed, cache=cache, token=token)
    _WORKER["chunk_cache"] = (chunk_index, prefix)
    return prefix


def _run_grid_tile(
    tile: tuple[int, int, int],
) -> tuple[int, ...]:
    from ..faults.simulation import SimulationStats, _fault_any, _fault_rows

    chunk_index, f_start, f_stop = tile
    network: ComparatorNetwork = _WORKER["network"]  # type: ignore[assignment]
    faults: list[Fault] = _WORKER["faults"]  # type: ignore[assignment]
    chunks: list[tuple[int, int, int]] = _WORKER["chunks"]  # type: ignore[assignment]
    out: SharedArray = _WORKER["out"]  # type: ignore[assignment]
    prefix = _grid_chunk_prefix(chunk_index)
    stats = SimulationStats()
    prune = bool(_WORKER["prune"])
    criterion = str(_WORKER["criterion"])
    arena = _worker_arena(network, prefix)
    if _WORKER["reduce"] == "matrix":
        rows = np.zeros((f_stop - f_start, prefix.num_words), dtype=bool)
        _fault_rows(
            network, faults[f_start:f_stop], prefix, criterion, rows,
            prune=prune, stats=stats, arena=arena,
        )
        word_start = chunks[chunk_index][0]
        out.array[f_start:f_stop, word_start : word_start + prefix.num_words] = rows
    else:
        # Seed with the verdicts other chunks have already published for
        # this fault slice: the OR-reduction is monotone, so reading the
        # shared matrix without synchronisation can only *under*-drop
        # (a not-yet-written column reads as False), never change the
        # result — and faults detected by an earlier chunk-major tile are
        # dropped here exactly as in the serial streamed path.
        detected = out.array[f_start:f_stop, :].any(axis=1)
        _fault_any(
            network, faults[f_start:f_stop], prefix, criterion, detected,
            prune=prune, stats=stats, arena=arena,
        )
        out.array[f_start:f_stop, chunk_index] = detected
    return _ship_counters(stats)


def _init_generic_worker(
    network: ComparatorNetwork,
    faults: list[Fault],
    vectors,
    criterion: str,
    engine: str,
    matrix_spec,
) -> None:
    _WORKER["network"] = network
    _WORKER["faults"] = faults
    _WORKER["vectors"] = vectors
    _WORKER["criterion"] = criterion
    _WORKER["engine"] = engine
    _WORKER["matrix"] = attach_shared_array(matrix_spec)


def _run_generic_span(span: tuple[int, int]) -> int:
    from ..faults.simulation import _fault_detection_matrix_impl

    start, stop = span
    network: ComparatorNetwork = _WORKER["network"]  # type: ignore[assignment]
    faults: list[Fault] = _WORKER["faults"]  # type: ignore[assignment]
    matrix: SharedArray = _WORKER["matrix"]  # type: ignore[assignment]
    rows = _fault_detection_matrix_impl(
        network,
        faults[start:stop],
        _WORKER["vectors"],  # type: ignore[arg-type]
        criterion=str(_WORKER["criterion"]),
        engine=str(_WORKER["engine"]),
    )
    matrix.array[start:stop] = rows
    return stop - start


def _vector_chunk_table(vectors, chunk_words: int) -> tuple[int, list[tuple[int, int, int]]]:
    """``(cube_n, chunks)`` describing the streamed vector axis.

    Each chunk entry is ``(word_start, lo, hi)`` where ``[lo, hi)`` is a
    cube *block* span (``cube_n >= 0``) or a raw *row* span
    (``cube_n == -1``) — everything a worker needs to regenerate its own
    packed chunk.
    """
    from ..faults.simulation import CubeVectors

    if isinstance(vectors, CubeVectors):
        spans = cube_block_spans(vectors.n, chunk_words)
        return vectors.n, [(lo * BLOCK_BITS, lo, hi) for lo, hi in spans]
    total = len(vectors)
    return -1, [(lo, lo, hi) for lo, hi in chunk_spans(total, chunk_words)]


def sharded_fault_detection_matrix(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    vectors,
    *,
    criterion: str = "specification",
    engine: str = "bitpacked",
    config: ExecutionConfig | None = None,
    prune: bool = True,
    stats=None,
    arena=None,
    cache=None,
    base_token: tuple | None = None,
    reduce: str = "matrix",
) -> np.ndarray:
    """Fault- and vector-axis sharded detection, bit-identical to serial.

    Callers normally reach this through
    :func:`repro.faults.simulation.fault_detection_matrix` (or
    :func:`~repro.faults.simulation.fault_detection_any`) with a parallel
    *config*.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free reference device.
    faults : sequence of Fault
        Faults to simulate (the sharded axis).
    vectors : list of int tuples, 2-D integer array, or CubeVectors
        Normalised test vectors.  A
        :class:`~repro.faults.simulation.CubeVectors` marker streams the
        exhaustive cube; explicit batches larger than one chunk stream as
        word slices.  Must be non-empty.
    criterion : {"specification", "reference"}, optional
        Detection criterion.
    engine : {"bitpacked", "vectorized", "scalar"}, optional
        Simulation engine; only ``"bitpacked"`` shares prefix states and
        streams the vector axis.
    config : ExecutionConfig, optional
        Worker count and chunk size; the 2-D grid is chosen automatically
        via :meth:`ExecutionConfig.wants_vector_chunking`.
    prune : bool, optional
        Dominated-state pruning in the workers (bit-packed engine only).
    stats : SimulationStats, optional
        Merged with the workers' pruning counters.
    arena : PlaneArena or bool, optional
        The scratch-arena knob of :func:`repro.faults.simulation.fault_detection_matrix`.
        Worker processes always build their own worker-local arenas (a
        parent-owned arena cannot cross the process boundary usefully);
        only ``False`` — disable arenas, run the legacy allocating path —
        is forwarded to them.
    cache : ResultCache, optional
        Parent-side result store (:mod:`repro.cache`): the shared prefix
        states of the fault-sharded path are acquired through the
        incremental front end, and grid workers opt into their own
        process-local default cache (cache objects never cross the
        process boundary).  Requires *base_token*.
    base_token : tuple, optional
        Content token of the normalised vector source (computed by the
        dispatcher); ``None`` disables caching.
    reduce : {"matrix", "any"}, optional
        ``"matrix"`` returns the full boolean matrix; ``"any"`` reduces the
        vector axis per chunk and returns a ``(num_faults,)`` vector, never
        materialising the matrix (the cube-scale coverage path).

    Returns
    -------
    numpy.ndarray
        ``(num_faults, num_vectors)`` boolean matrix, or the
        ``(num_faults,)`` any-reduction.
    """
    from ..cache.restore import acquire_prefix_states
    from ..faults.simulation import CubeVectors, _pack_vectors

    cfg = resolve_config(config)
    fault_list = list(faults)
    num_vectors = len(vectors)
    workers = cfg.resolved_workers()
    use_arena = arena is not False
    caching = cache is not None and base_token is not None
    if not fault_list:
        shape = (0, num_vectors) if reduce == "matrix" else (0,)
        return np.zeros(shape, dtype=bool)
    if engine == "bitpacked" and (
        isinstance(vectors, CubeVectors)
        or cfg.wants_vector_chunking(num_vectors)
    ):
        return _grid_detection(
            network,
            fault_list,
            vectors,
            criterion=criterion,
            cfg=cfg,
            prune=prune,
            stats=stats,
            use_arena=use_arena,
            use_cache=caching,
            base_token=base_token if caching else None,
            reduce=reduce,
        )
    spans = shard_spans(len(fault_list), workers)
    workers = min(workers, len(spans))
    if stats is not None:
        stats.planned_grid = (len(spans), 1)
    matrix_shared = create_shared_array((len(fault_list), num_vectors), np.bool_)
    try:
        if engine == "bitpacked":
            packed_input = None
            token = (*base_token, 0, num_vectors) if caching else None
            if caching:
                packed_input = cache.get_input(token)
            if packed_input is None:
                packed_input = _pack_vectors(network, vectors)
                if caching:
                    cache.put_input(token, packed_input)
            dtype = packed_input.planes.dtype
            input_shared = create_shared_array(packed_input.planes.shape, dtype)
            deltas_shared = create_shared_array(
                (network.size, 2, packed_input.n_blocks), dtype
            )
            try:
                input_shared.array[...] = packed_input.planes
                acquire_prefix_states(
                    network,
                    packed_input,
                    cache=cache if caching else None,
                    token=token,
                    deltas_out=deltas_shared.array,
                )
                all_counts = _map_work(
                    cfg,
                    workers,
                    _init_bitpacked_worker,
                    (
                        network,
                        fault_list,
                        criterion,
                        prune,
                        use_arena,
                        packed_input.num_words,
                        input_shared.spec,
                        deltas_shared.spec,
                        matrix_shared.spec,
                    ),
                    _run_bitpacked_span,
                    spans,
                )
                _merge_shipped(stats, all_counts)
            finally:
                input_shared.unlink()
                deltas_shared.unlink()
        else:
            _map_work(
                cfg,
                workers,
                _init_generic_worker,
                (
                    network,
                    fault_list,
                    vectors,
                    criterion,
                    engine,
                    matrix_shared.spec,
                ),
                _run_generic_span,
                spans,
            )
        matrix = matrix_shared.array
        return matrix.copy() if reduce == "matrix" else matrix.any(axis=1)
    finally:
        matrix_shared.unlink()


def _grid_detection(
    network: ComparatorNetwork,
    fault_list: list[Fault],
    vectors,
    *,
    criterion: str,
    cfg: ExecutionConfig,
    prune: bool,
    stats,
    use_arena: bool,
    use_cache: bool = False,
    base_token: tuple | None = None,
    reduce: str,
) -> np.ndarray:
    """The 2-D (faults × vector-chunks) grid (module docstring)."""
    from ..faults.simulation import CubeVectors

    num_vectors = len(vectors)
    cube_n, chunks = _vector_chunk_table(vectors, cfg.chunk_words())
    workers = cfg.resolved_workers()
    tiles = grid_tiles(len(fault_list), len(chunks), workers)
    workers = min(workers, len(tiles))
    if stats is not None:
        stats.planned_grid = (len(tiles) // max(1, len(chunks)), len(chunks))
    raw_shared: SharedArray | None = None
    if not isinstance(vectors, CubeVectors):
        raw = (
            np.ascontiguousarray(vectors)
            if isinstance(vectors, np.ndarray)
            else np.asarray(vectors, dtype=np.int8)
        )
        raw_shared = create_shared_array(raw.shape, raw.dtype)
        raw_shared.array[...] = raw
    if reduce == "matrix":
        out_shared = create_shared_array((len(fault_list), num_vectors), np.bool_)
    else:
        out_shared = create_shared_array((len(fault_list), len(chunks)), np.bool_)
    try:
        all_counts = _map_work(
            cfg,
            workers,
            _init_grid_worker,
            (
                network,
                fault_list,
                criterion,
                prune,
                use_arena,
                cube_n,
                raw_shared.spec if raw_shared is not None else None,
                chunks,
                out_shared.spec,
                reduce,
                use_cache,
                base_token,
            ),
            _run_grid_tile,
            tiles,
        )
        _merge_shipped(stats, all_counts)
        out = out_shared.array
        return out.copy() if reduce == "matrix" else out.any(axis=1)
    finally:
        if raw_shared is not None:
            raw_shared.unlink()
        out_shared.unlink()
