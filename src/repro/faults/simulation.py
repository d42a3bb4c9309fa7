"""Fault simulation: scalar, vectorised, and batched bit-packed engines.

A *fault simulation* answers: for every (fault, test vector) pair, does the
faulty device produce an output different from the fault-free device — or,
in the functional view used here for sorting chips, an output that violates
the specification (an unsorted output on a chip sold as a sorter)?

Two detection criteria are supported because they answer different
questions:

``"specification"``
    A test vector detects a fault if the faulty network fails to *sort* it.
    This matches the paper's setting: the tester only knows the chip should
    sort, and Theorem 2.2 tells it which vectors are worth applying.
``"reference"``
    A test vector detects a fault if the faulty output differs from the
    fault-free output at all (classical stuck-at testing with a golden
    reference).  Strictly more sensitive than ``"specification"``.

Three simulation engines are available (``engine=`` keyword, cross-checked
against each other by the test suite):

``"scalar"``
    One :meth:`~repro.core.network.ComparatorNetwork.apply` call per
    (fault, vector) pair.  The slow reference.
``"vectorized"`` (default)
    One vectorised batch evaluation per fault (the classical serial fault
    simulation loop, one full network pass per fault).
``"bitpacked"``
    0/1 vectors only.  The batch is packed as uint64 bit planes (64 words
    per machine word, :mod:`repro.core.bitpacked`) and all single-comparator
    faults are simulated in one pass over the network: the fault-free packed
    state *before every stage* is recorded once, and each fault restarts
    from the prefix state at its fault site and only re-evaluates the
    suffix.  Total work is ``O(size**2 / 2)`` comparator-block operations
    instead of ``O(size**2)`` full passes, on top of the ~64× density win —
    in practice two orders of magnitude faster than the vectorised loop.

Dominated-state pruning (``prune=True``, the default for the bit-packed
engine) cuts the ``O(size**2 / 2)`` suffix work further: after every suffix
stage the faulty planes are compared against the fault-free planes that
:class:`PrefixStates` already holds, per line.  Lines whose planes agree
with the fault-free run are *clean* and comparators whose inputs are all
clean are skipped outright (their outputs are fault-free by determinism);
a fault whose state has fully converged stops re-evaluating altogether and
inherits the fault-free detection row.  The skipped work is reported
through :class:`SimulationStats` and the result is bit-identical to the
unpruned path by construction (see ``tests/test_fault_streaming.py``).

The pruned hot loop runs allocation-free on a scratch-plane arena
(:class:`repro.core.scratch.PlaneArena`): every error plane lives in a
reusable slot pool written through ``out=`` ufuncs, one arena serving all
faults of a run (and, in the sharded executors, all tiles of a worker
process).  Pass ``arena=`` to share an arena across calls, or
``arena=False`` to force the legacy per-stage-allocating path (kept as the
baseline for the benchmark gate in ``benchmarks/parallel_smoke.py``).

The vector axis streams exactly like exhaustive verification does: pass a
:class:`CubeVectors` marker (the full ``2**n`` cube, never materialised) or
any explicit batch together with a streaming
:class:`~repro.parallel.config.ExecutionConfig` and the packed chunks are
(re)generated per block range via
:func:`repro.core.bitpacked.packed_cube_range` — constant memory at any
``n``, and a 2-D (faults × vector-chunks) work grid across processes when
``max_workers > 1``.

The main entry point :func:`fault_detection_matrix` returns a boolean matrix
``(num_faults, num_vectors)``; :func:`fault_detection_any` reduces the
vector axis on the fly (the constant-memory form used by the coverage
helpers in :mod:`repro.faults.coverage`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._compat import UNSET, unset_or, warn_legacy_exec_kwargs
from .._registry import builtin_engine_names
from .._typing import WordLike
from ..core.bitpacked import (
    BLOCK_BITS,
    PackedBatch,
    apply_comparators_packed,
    apply_network_packed,
    pack_words,
    packed_cube_range,
    packed_equal,
    packed_is_sorted,
    packed_unsorted_blocks,
)
from ..core.evaluation import (
    apply_network_to_batch,
    batch_is_sorted,
    check_engine,
    narrow_binary_batch,
    words_to_array,
)
from ..core.network import ComparatorNetwork
from ..core.scratch import PlaneArena, allocation_free, shared_arena
from ..exceptions import FaultModelError
from ..observe import Metrics
from ..words.binary import is_sorted_word
from .models import (
    Fault,
    LineStuckFault,
    ReversedComparatorFault,
    StuckPassFault,
    StuckSwapFault,
    _check_index,
)

if TYPE_CHECKING:
    from ..cache.store import ResultCache
    from ..parallel.config import ExecutionConfig

__all__ = [
    "DETECTION_CRITERIA",
    "SIMULATION_ENGINES",
    "CubeVectors",
    "SimulationStats",
    "fault_detection_matrix",
    "fault_detection_any",
    "detected_faults",
    "undetected_faults",
]

#: Detection criteria accepted by :func:`fault_detection_matrix`.
DETECTION_CRITERIA = ("specification", "reference")

#: Engine choices accepted by :func:`fault_detection_matrix` — derived
#: from the engine registry, never hard-coded (devtools rule RPR002).
SIMULATION_ENGINES = builtin_engine_names()


@dataclass(frozen=True)
class CubeVectors:
    """The exhaustive 0/1 test set ``{0,1}**n`` as a *lazy* vector source.

    Passing an instance as the ``test_vectors`` argument of
    :func:`fault_detection_matrix`, :func:`fault_detection_any` or the
    coverage helpers makes the bit-packed engine (re)generate the cube
    chunk by chunk in packed form (:func:`repro.core.bitpacked.packed_cube_range`)
    instead of materialising the ``(2**n, n)`` vector array — the fault
    simulation analogue of streamed exhaustive verification.  Word ``r`` is
    the binary expansion of rank ``r``, most significant bit on line 0, so
    results are column-for-column identical to passing
    ``all_binary_words_array(n)`` explicitly.

    Parameters
    ----------
    n : int
        Number of network lines; the source stands for all ``2**n`` words.

    Examples
    --------
    >>> from repro.faults import CubeVectors
    >>> len(CubeVectors(4))
    16
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise FaultModelError(f"CubeVectors needs n >= 0, got {self.n}")

    def __len__(self) -> int:
        """Number of vectors in the cube (``2**n``)."""
        return 1 << self.n


#: Counter schema of the pruned fault simulator, in wire order.  This is
#: the :meth:`repro.observe.Metrics.pack` layout shipped worker → parent
#: and stored in cache verdict memos; :class:`SimulationStats` is a thin
#: view over a ``Metrics`` built from it.
SIMULATION_COUNTERS = (
    "faults",
    "converged_faults",
    "dropped_faults",
    "evaluated_stage_blocks",
    "pruned_stage_blocks",
)


class SimulationStats:
    """Work counters reported by the pruned bit-packed fault simulator.

    One *stage-block* is a single comparator evaluated on one uint64 block
    (64 packed words) — the unit of work of the bit-packed engine.  Pass an
    instance through the ``stats=`` keyword of
    :func:`fault_detection_matrix` (or the coverage helpers) and the
    counters accumulate across chunks, faults and worker processes.

    The class is a thin view over a :class:`repro.observe.Metrics`
    registry (schema :data:`SIMULATION_COUNTERS`, exposed as
    :attr:`metrics`): the named attributes read and write the registry,
    and :meth:`counts` / :meth:`merge_counts` are the registry's
    ``pack()`` / ``merge_packed()`` wire format — the single aggregation
    path across worker processes and cache replays.

    Attributes
    ----------
    faults : int
        Number of faults simulated by the pruned engine.
    converged_faults : int
        Faults whose suffix state converged to the fault-free state (they
        inherit the fault-free detection row without finishing the suffix).
    dropped_faults : int
        Fault × chunk simulations skipped entirely by fault dropping: in
        the streamed any-reduction a fault already detected by an earlier
        vector chunk cannot change the verdict, so later chunks skip it.
    evaluated_stage_blocks : int
        Comparator-block operations actually performed.
    pruned_stage_blocks : int
        Comparator-block operations skipped by dominated-state pruning
        (clean-input comparators plus the tail after full convergence).
    planned_grid : tuple of (int, int) or None
        The (fault-shards × vector-chunks) work grid the dispatcher planned
        for the most recent run that used this instance — ``(1, 1)`` for a
        serial single-shot run, ``(0, 0)`` for an empty vector set, ``None``
        until a run records one.  Recorded parent-side by the dispatcher
        (not merged across workers, not part of :meth:`counts`); this is
        what the :mod:`repro.api` result objects report, so the label can
        never drift from the dispatch that actually ran.
    metrics : repro.observe.Metrics
        The backing counter registry (``SIMULATION_COUNTERS`` schema).

    Examples
    --------
    >>> from repro.faults import SimulationStats
    >>> stats = SimulationStats()
    >>> stats.prune_ratio
    0.0
    """

    __slots__ = ("metrics", "planned_grid")

    def __init__(
        self,
        faults: int = 0,
        converged_faults: int = 0,
        dropped_faults: int = 0,
        evaluated_stage_blocks: int = 0,
        pruned_stage_blocks: int = 0,
        planned_grid: tuple[int, int] | None = None,
    ) -> None:
        self.metrics = Metrics(
            SIMULATION_COUNTERS,
            initial={
                "faults": faults,
                "converged_faults": converged_faults,
                "dropped_faults": dropped_faults,
                "evaluated_stage_blocks": evaluated_stage_blocks,
                "pruned_stage_blocks": pruned_stage_blocks,
            },
        )
        self.planned_grid = planned_grid

    @property
    def faults(self) -> int:
        """Number of faults simulated by the pruned engine."""
        return self.metrics.get("faults")

    @faults.setter
    def faults(self, value: int) -> None:
        """Write through to the backing metrics registry."""
        self.metrics.set("faults", value)

    @property
    def converged_faults(self) -> int:
        """Faults whose suffix state converged to the fault-free state."""
        return self.metrics.get("converged_faults")

    @converged_faults.setter
    def converged_faults(self, value: int) -> None:
        """Write through to the backing metrics registry."""
        self.metrics.set("converged_faults", value)

    @property
    def dropped_faults(self) -> int:
        """Fault × chunk simulations skipped entirely by fault dropping."""
        return self.metrics.get("dropped_faults")

    @dropped_faults.setter
    def dropped_faults(self, value: int) -> None:
        """Write through to the backing metrics registry."""
        self.metrics.set("dropped_faults", value)

    @property
    def evaluated_stage_blocks(self) -> int:
        """Comparator-block operations actually performed."""
        return self.metrics.get("evaluated_stage_blocks")

    @evaluated_stage_blocks.setter
    def evaluated_stage_blocks(self, value: int) -> None:
        """Write through to the backing metrics registry."""
        self.metrics.set("evaluated_stage_blocks", value)

    @property
    def pruned_stage_blocks(self) -> int:
        """Comparator-block operations skipped by dominated-state pruning."""
        return self.metrics.get("pruned_stage_blocks")

    @pruned_stage_blocks.setter
    def pruned_stage_blocks(self, value: int) -> None:
        """Write through to the backing metrics registry."""
        self.metrics.set("pruned_stage_blocks", value)

    @property
    def total_stage_blocks(self) -> int:
        """Stage-blocks the unpruned engine would have evaluated."""
        return self.evaluated_stage_blocks + self.pruned_stage_blocks

    @property
    def prune_ratio(self) -> float:
        """Fraction of suffix stage-blocks skipped (0.0 when idle).

        Counts dominated-state pruning only; fault dropping is reported
        separately through :attr:`dropped_faults`.
        """
        total = self.total_stage_blocks
        return (self.pruned_stage_blocks / total) if total else 0.0

    def counts(self) -> tuple[int, ...]:
        """The raw counters as a picklable tuple (worker → parent).

        The tuple is :meth:`repro.observe.Metrics.pack` under the
        :data:`SIMULATION_COUNTERS` schema.
        """
        return self.metrics.pack()

    def merge_counts(self, counts: Sequence[int]) -> None:
        """Accumulate a :meth:`counts` tuple from another instance."""
        self.metrics.merge_packed(counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationStats):
            return NotImplemented
        return (
            self.metrics == other.metrics
            and self.planned_grid == other.planned_grid
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{k}={v}" for k, v in self.metrics.as_dict().items()
        )
        return f"SimulationStats({body}, planned_grid={self.planned_grid!r})"


def fault_detection_matrix(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str = UNSET,
    config: ExecutionConfig | None = UNSET,
    prune: bool = UNSET,
    stats: SimulationStats | None = None,
    arena: PlaneArena | bool | None = UNSET,
) -> np.ndarray:
    """Boolean matrix ``D[f, t]``: does test vector ``t`` detect fault ``f``?

    Rows follow the order of *faults*, columns the order of *test_vectors*.
    All engines and all execution configurations produce bit-identical
    matrices on 0/1 vectors.

    .. deprecated::
        Passing the execution kwargs (``engine``, ``config``, ``prune``,
        ``arena``) here is deprecated; configure a
        :class:`repro.api.Session` instead (``session.fault_matrix(...)``
        returns the same matrix inside a typed result object).  Calls that
        leave them at their defaults are not deprecated.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free reference device.
    faults : sequence of Fault
        Faults to simulate, one matrix row each.
    test_vectors : sequence of words, 2-D integer array, or CubeVectors
        The vectors to apply, one matrix column each.  A 2-D array is used
        as-is (zero-copy fast path); a :class:`CubeVectors` marker streams
        the exhaustive cube in packed block ranges without materialising it
        (bit-packed engine; other engines expand the cube first).
    criterion : {"specification", "reference"}, optional
        Detection criterion (module docstring).
    engine : {"vectorized", "scalar", "bitpacked"}, optional
        Simulation engine (module docstring).
    config : ExecutionConfig, optional
        Execution configuration.  ``max_workers > 1`` shards the work across
        a process pool: the fault axis alone when the vector batch fits one
        chunk (fault-free prefix states computed once, published through
        shared memory), or a 2-D (faults × vector-chunks) grid when the
        vector axis streams — each worker then regenerates its own packed
        chunk and fills disjoint slices of the shared matrix.  An explicit
        ``chunk_size`` bounds the packed working set per process.
    prune : bool, optional
        Enable dominated-state pruning in the bit-packed engine (default).
        ``False`` forces the full suffix re-evaluation; the matrix is
        identical either way.
    stats : SimulationStats, optional
        Accumulates pruning counters across chunks and workers.
    arena : PlaneArena or bool, optional
        Scratch-plane arena for the bit-packed engine
        (:class:`repro.core.scratch.PlaneArena`).  ``None`` (default) uses
        a shared arena (one per thread) keyed by the plane geometry — the
        pruned hot loop then allocates nothing per stage.  Pass an explicit instance
        to reuse it across calls (it is resized on a geometry change), or
        ``False`` to force the legacy per-stage-allocating path (the
        benchmark baseline).  Worker processes of a sharded run always use
        their own worker-local arenas; ``False`` is forwarded to them.

    Returns
    -------
    numpy.ndarray
        Boolean array of shape ``(len(faults), num_vectors)``.  For
        cube-scale vector counts prefer :func:`fault_detection_any`, which
        never materialises the matrix.
    """
    warn_legacy_exec_kwargs(
        "fault_detection_matrix", engine=engine, config=config, prune=prune,
        arena=arena,
    )
    return _fault_detection_matrix_impl(
        network,
        faults,
        test_vectors,
        criterion=criterion,
        engine=unset_or(engine, "vectorized"),
        config=unset_or(config, None),
        prune=unset_or(prune, True),
        stats=stats,
        arena=unset_or(arena, None),
    )


def _fault_detection_matrix_impl(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str = "vectorized",
    config: ExecutionConfig | None = None,
    prune: bool = True,
    stats: SimulationStats | None = None,
    arena: PlaneArena | bool | None = None,
    cache: ResultCache | None = None,
) -> np.ndarray:
    """Non-deprecating form of :func:`fault_detection_matrix`.

    This is what the :class:`repro.api.Session` facade (and the other
    internal callers) invoke; the public free function is a thin shim over
    it that warns when legacy execution kwargs are passed explicitly.
    *cache* is a :class:`repro.cache.ResultCache` consulted by the
    bit-packed paths for prefix states, packed inputs and per-chunk
    verdict rows; results are bit-identical with or without it (other
    engines ignore it).
    """
    if criterion not in DETECTION_CRITERIA:
        raise FaultModelError(
            f"unknown detection criterion {criterion!r}; "
            f"choose one of {DETECTION_CRITERIA}"
        )
    check_engine(engine)
    return _detection_run(
        network,
        faults,
        test_vectors,
        criterion=criterion,
        engine=engine,
        config=config,
        prune=prune,
        stats=stats,
        arena=arena,
        cache=cache,
        reduce="matrix",
    )


def fault_detection_any(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str = UNSET,
    config: ExecutionConfig | None = UNSET,
    prune: bool = UNSET,
    stats: SimulationStats | None = None,
    arena: PlaneArena | bool | None = UNSET,
) -> np.ndarray:
    """Per-fault detection verdicts: is fault ``f`` detected by *any* vector?

    Exactly ``fault_detection_matrix(...).any(axis=1)``, but the reduction
    happens chunk by chunk, so exhaustive (:class:`CubeVectors`) and other
    streamed runs never materialise the ``(num_faults, num_vectors)``
    matrix — this is what keeps cube-scale coverage reports in constant
    memory.  Parameters are those of :func:`fault_detection_matrix`,
    including the deprecation of explicitly passed execution kwargs
    (configure a :class:`repro.api.Session` instead).

    Returns
    -------
    numpy.ndarray
        Boolean vector of length ``len(faults)``.
    """
    warn_legacy_exec_kwargs(
        "fault_detection_any", engine=engine, config=config, prune=prune,
        arena=arena,
    )
    return _fault_detection_any_impl(
        network,
        faults,
        test_vectors,
        criterion=criterion,
        engine=unset_or(engine, "vectorized"),
        config=unset_or(config, None),
        prune=unset_or(prune, True),
        stats=stats,
        arena=unset_or(arena, None),
    )


def _fault_detection_any_impl(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str = "vectorized",
    config: ExecutionConfig | None = None,
    prune: bool = True,
    stats: SimulationStats | None = None,
    arena: PlaneArena | bool | None = None,
    cache: ResultCache | None = None,
) -> np.ndarray:
    """Non-deprecating form of :func:`fault_detection_any` (Session backend).

    *cache* follows :func:`_fault_detection_matrix_impl`.
    """
    if criterion not in DETECTION_CRITERIA:
        raise FaultModelError(
            f"unknown detection criterion {criterion!r}; "
            f"choose one of {DETECTION_CRITERIA}"
        )
    check_engine(engine)
    return _detection_run(
        network,
        faults,
        test_vectors,
        criterion=criterion,
        engine=engine,
        config=config,
        prune=prune,
        stats=stats,
        arena=arena,
        cache=cache,
        reduce="any",
    )


def _detection_run(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str,
    engine: str,
    config: ExecutionConfig | None,
    prune: bool,
    stats: SimulationStats | None,
    arena: PlaneArena | bool | None,
    reduce: str,
    cache: ResultCache | None = None,
) -> np.ndarray:
    """Shared dispatcher behind the two public entry points."""
    vectors = _normalise_vectors(network, test_vectors, engine)
    num_vectors = len(vectors)
    if num_vectors == 0:
        if stats is not None:
            stats.planned_grid = (0, 0)
        shape = (len(faults), 0) if reduce == "matrix" else (len(faults),)
        return np.zeros(shape, dtype=bool)
    if stats is not None:
        # Serial single-shot unless a dispatcher below overwrites it with
        # the shard / streamed grid it actually plans.
        stats.planned_grid = (1, 1)
    base_token = (
        _vectors_token(network, vectors)
        if cache is not None and engine == "bitpacked"
        else None
    )
    if config is not None and config.parallel and len(faults) > 1:
        from ..parallel.fault_shard import sharded_fault_detection_matrix

        return sharded_fault_detection_matrix(
            network,
            list(faults),
            vectors,
            criterion=criterion,
            engine=engine,
            config=config,
            prune=prune,
            stats=stats,
            arena=arena,
            cache=cache,
            base_token=base_token,
            reduce=reduce,
        )
    if engine == "bitpacked" and (
        reduce == "any"
        or isinstance(vectors, CubeVectors)
        or (config is not None and config.streaming)
    ):
        return _streamed_bitpacked_detection(
            network,
            faults,
            vectors,
            criterion,
            config,
            prune=prune,
            stats=stats,
            arena=arena,
            cache=cache,
            base_token=base_token,
            reduce=reduce,
        )
    if engine == "scalar":
        matrix = _scalar_detection_matrix(network, faults, vectors, criterion)
    elif engine == "bitpacked":
        matrix = _bitpacked_detection_matrix(
            network, faults, vectors, criterion, prune=prune, stats=stats,
            arena=arena, cache=cache, base_token=base_token,
        )
    else:
        matrix = _vectorized_detection_matrix(
            network, faults, vectors, criterion, engine=engine
        )
    return matrix if reduce == "matrix" else matrix.any(axis=1)


def _vectors_token(network: ComparatorNetwork, vectors) -> tuple:
    """Content token of a normalised vector source (cache key ingredient)."""
    from ..cache.keys import array_token, words_token

    if isinstance(vectors, CubeVectors):
        return ("cube", vectors.n)
    if isinstance(vectors, np.ndarray):
        return array_token(vectors)
    return words_token(vectors, network.n_lines)


def _normalise_vectors(
    network: ComparatorNetwork,
    test_vectors: Sequence[WordLike] | CubeVectors,
    engine: str,
):
    """Normalise the vector source: cube marker, 2-D array, or tuple list."""
    if isinstance(test_vectors, CubeVectors):
        if test_vectors.n != network.n_lines:
            raise FaultModelError(
                f"CubeVectors(n={test_vectors.n}) does not match a network "
                f"with {network.n_lines} lines"
            )
        if engine == "bitpacked":
            return test_vectors
        # The other engines cannot consume packed block ranges; expand the
        # cube (small n only — the bit-packed engine is the scalable path).
        from ..core.evaluation import all_binary_words_array

        return all_binary_words_array(test_vectors.n)
    if isinstance(test_vectors, np.ndarray):
        # Fast path for exhaustive-scale vector batches: a 2-D integer
        # array is used as-is, skipping the per-element normalisation loop
        # (which would dominate the packed engines' wall-clock).
        if test_vectors.ndim != 2:
            raise FaultModelError(
                "test-vector arrays must be 2-D (num_vectors, n_lines), "
                f"got shape {test_vectors.shape}"
            )
        return test_vectors
    return [tuple(int(v) for v in w) for w in test_vectors]


def _vectorized_detection_matrix(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    vectors,
    criterion: str,
    engine: str = "vectorized",
) -> np.ndarray:
    # Build wide and narrow only after a numpy range check: permutation
    # vectors with values > 127 must never land in int8, where they would
    # silently wrap and corrupt both criteria.  *engine* is "vectorized" or
    # a registered plug-in (the generic fall-through of _detection_run) —
    # binary-only plug-ins downgrade through narrow_binary_batch exactly
    # like every other call site.
    if isinstance(vectors, np.ndarray):
        batch = np.ascontiguousarray(vectors)
        if batch.shape[1] != network.n_lines:
            raise FaultModelError(
                f"test vectors have {batch.shape[1]} columns but the network "
                f"has {network.n_lines} lines"
            )
    else:
        batch = words_to_array(vectors, dtype=np.int64, n_lines=network.n_lines)
    batch, engine = narrow_binary_batch(batch, engine)
    reference_outputs = None
    if criterion == "reference":
        reference_outputs = apply_network_to_batch(network, batch, engine=engine)
    matrix = np.zeros((len(faults), len(vectors)), dtype=bool)
    for row, fault in enumerate(faults):
        faulty = fault.apply_to(network)
        outputs = apply_network_to_batch(faulty, batch, engine=engine)
        if criterion == "specification":
            matrix[row] = ~batch_is_sorted(outputs)
        else:
            matrix[row] = np.any(outputs != reference_outputs, axis=1)
    return matrix


def _scalar_detection_matrix(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    vectors,
    criterion: str,
) -> np.ndarray:
    if isinstance(vectors, np.ndarray):
        vectors = [tuple(int(v) for v in row) for row in vectors]
    reference = None
    if criterion == "reference":
        reference = [network.apply(vector) for vector in vectors]
    matrix = np.zeros((len(faults), len(vectors)), dtype=bool)
    for row, fault in enumerate(faults):
        faulty = fault.apply_to(network)
        for column, vector in enumerate(vectors):
            output = faulty.apply(vector)
            if criterion == "specification":
                matrix[row, column] = not is_sorted_word(output)
            else:
                matrix[row, column] = output != reference[column]
    return matrix


# ----------------------------------------------------------------------
# Bit-packed batched engine with shared fault-free prefixes
# ----------------------------------------------------------------------
@allocation_free
def _detection_row(
    state: PackedBatch,
    reference: PackedBatch,
    criterion: str,
    arena: PlaneArena | None = None,
) -> np.ndarray:
    """Detection row of a fully materialised faulty state.

    Without an *arena* this is the legacy allocating form (one fresh plane
    per bitwise step of ``packed_is_sorted`` / ``packed_equal``, then the
    boolean expansion).  With an *arena* the packed temporaries — the
    adjacent-pair sortedness sweep or the per-line XOR/OR difference
    accumulation — run on pool rows through ``out=`` ufuncs, so the only
    remaining allocation is the unpacked boolean row itself (the caller's
    output).  Padding bits need no masking here: ``unpack_bits`` truncates
    to ``num_words``, which drops them by construction.
    """
    if arena is None:
        if criterion == "specification":
            return ~packed_is_sorted(state)
        return ~packed_equal(state, reference)
    from ..core.bitpacked import unpack_bits

    planes = state.planes
    n = planes.shape[0]
    num_words = state.num_words
    s_acc = arena.acquire()
    s_tmp = arena.acquire()
    acc = arena.plane(s_acc)
    tmp = arena.plane(s_tmp)
    acc[...] = 0
    if criterion == "specification":
        for i in range(n - 1):
            np.invert(planes[i + 1], out=tmp)
            np.bitwise_and(tmp, planes[i], out=tmp)
            np.bitwise_or(acc, tmp, out=acc)
    else:
        for i in range(n):
            np.bitwise_xor(planes[i], reference.planes[i], out=tmp)
            np.bitwise_or(acc, tmp, out=acc)
    row = unpack_bits(acc, num_words)
    arena.release(s_tmp)
    arena.release(s_acc)
    return row


class PrefixStates:
    """Delta-compressed fault-free prefix states.

    A comparator writes exactly two planes, so the state after every prefix
    of the network is recorded as ``deltas[i] = (planes[low_i],
    planes[high_i])`` *after* comparator ``i`` — ``O(size * 2 * n_blocks)``
    memory and build work instead of the ``O(size * n_lines * n_blocks)``
    of full per-stage snapshots.  :meth:`state_after` reconstructs the full
    planes after any prefix by pulling, for each line, the delta of the
    last comparator that wrote it (same bytes copied as a full-snapshot
    read); :meth:`line_value` serves a single line, which is what the
    dominated-state pruner uses to lazily refresh clean lines.  Recorded
    once and shared by every fault, so each fault only re-evaluates its
    suffix instead of the whole network; the sharded executor publishes
    ``input_planes`` and ``deltas`` through shared memory and workers
    rebuild the (tiny) last-writer table locally.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free device the deltas were recorded from.
    input_planes : numpy.ndarray
        Packed input planes of shape ``(n_lines, n_blocks)``.
    deltas : numpy.ndarray
        Per-comparator output planes of shape ``(size, 2, n_blocks)``.
    num_words : int
        Number of valid packed words.
    """

    def __init__(
        self,
        network: ComparatorNetwork,
        input_planes: np.ndarray,
        deltas: np.ndarray,
        num_words: int,
    ) -> None:
        self.network = network
        self.input_planes = input_planes
        self.deltas = deltas
        self.num_words = num_words
        self.pad_mask = PackedBatch(input_planes, num_words).pad_mask()
        size = network.size
        n = network.n_lines
        # last_writer[s, l]: index of the last comparator before stage s
        # writing line l (-1 = untouched input); writer_pos picks the
        # low/high half of the delta pair.
        last_writer = np.full((size + 1, n), -1, dtype=np.int32)
        writer_pos = np.zeros((size + 1, n), dtype=np.int8)
        for index, comp in enumerate(network.comparators):
            last_writer[index + 1] = last_writer[index]
            writer_pos[index + 1] = writer_pos[index]
            last_writer[index + 1, comp.low] = index
            writer_pos[index + 1, comp.low] = 0
            last_writer[index + 1, comp.high] = index
            writer_pos[index + 1, comp.high] = 1
        self._last_writer = last_writer
        self._writer_pos = writer_pos
        self._writer_lists: tuple[list[list[int]], list[list[int]]] | None = None
        self._comp_table: list[tuple[int, int, bool]] | None = None
        self._delta_views: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._input_views: list[np.ndarray] | None = None

    def writer_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """The last-writer tables as plain nested lists (cached).

        The dominated-state pruner indexes these per comparator in its hot
        loop; Python list indexing is an order of magnitude cheaper than
        numpy scalar indexing at that call rate.
        """
        if self._writer_lists is None:
            self._writer_lists = (
                self._last_writer.tolist(),
                self._writer_pos.tolist(),
            )
        return self._writer_lists

    def comp_table(self) -> list[tuple[int, int, bool]]:
        """``(low, high, reversed)`` per comparator as plain tuples (cached).

        Tuple unpacking beats three dataclass attribute reads per loop
        iteration at the pruner's call rate.
        """
        if self._comp_table is None:
            self._comp_table = [
                (c.low, c.high, c.reversed) for c in self.network.comparators
            ]
        return self._comp_table

    def delta_views(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Cached ``(low_plane, high_plane)`` views per comparator.

        ``deltas[i, pos]`` re-slices the 3-D array on every access
        (~hundreds of ns of numpy indexing); the pruner instead pulls
        pre-built views out of a plain list.
        """
        if self._delta_views is None:
            deltas = self.deltas
            self._delta_views = [
                (deltas[i, 0], deltas[i, 1]) for i in range(self.network.size)
            ]
        return self._delta_views

    def input_views(self) -> list[np.ndarray]:
        """Cached per-line views of the packed input planes."""
        if self._input_views is None:
            self._input_views = list(self.input_planes)
        return self._input_views

    @classmethod
    def build(
        cls,
        network: ComparatorNetwork,
        packed_input: PackedBatch,
        deltas_out: np.ndarray | None = None,
    ) -> PrefixStates:
        """Record the deltas (optionally into a shared-memory array).

        Parameters
        ----------
        network : ComparatorNetwork
            The fault-free device to record.
        packed_input : PackedBatch
            The packed test-vector chunk.
        deltas_out : numpy.ndarray, optional
            Pre-allocated ``(size, 2, n_blocks)`` destination (the sharded
            executor passes a shared-memory array here).

        Returns
        -------
        PrefixStates
            The recorded prefix states.
        """
        size = network.size
        n_blocks = packed_input.n_blocks
        deltas = (
            deltas_out
            if deltas_out is not None
            else np.empty((size, 2, n_blocks), dtype=packed_input.planes.dtype)
        )
        running = packed_input.planes.copy()
        # Write each comparator's outputs straight into its delta pair and
        # copy them back into the running state — the recording sweep then
        # allocates nothing per stage.
        for index, comp in enumerate(network.comparators):
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
        return cls(network, packed_input.planes, deltas, packed_input.num_words)

    def line_value(self, stage: int, line: int) -> np.ndarray:
        """The fault-free plane of *line* after the first *stage* comparators.

        Returns a read-only view (the input plane or the delta of the last
        comparator writing the line) — callers must copy before mutating.
        """
        index = int(self._last_writer[stage, line])
        if index < 0:
            return self.input_planes[line]
        return self.deltas[index, int(self._writer_pos[stage, line])]

    @allocation_free
    def state_after(
        self,
        stage: int,
        out: np.ndarray | None = None,
        *,
        span: tuple[int, int] | None = None,
    ) -> PackedBatch:
        """A copy of the packed planes after the first *stage* comparators.

        Parameters
        ----------
        stage : int
            Prefix length (0 = the inputs).
        out : numpy.ndarray, optional
            A ``(n_lines, n_blocks)`` destination (e.g. the ``state``
            buffer of a :class:`repro.core.scratch.PlaneArena`); when given
            the reconstruction is pure ``np.copyto`` row pulls with no
            allocation at all.
        span : (int, int), optional
            Restore only blocks ``[start, stop)``: *out* (if given) is
            ``(n_lines, stop - start)`` — e.g. that block range of an
            arena's ``state`` buffer — and the returned batch holds the
            range's words.  Defaults to every block.
        """
        start, stop = (0, self.input_planes.shape[1]) if span is None else span
        planes = (
            np.empty(  # repro: noqa RPR001 — legacy path
                (self.network.n_lines, stop - start), dtype=self.input_planes.dtype
            )
            if out is None
            else out
        )
        for line in range(self.network.n_lines):
            planes[line] = self.line_value(stage, line)[start:stop]
        num_words = min(self.num_words, stop * BLOCK_BITS) - start * BLOCK_BITS
        return PackedBatch(planes, num_words)

    def reference(self) -> PackedBatch:
        """The fault-free output planes."""
        return self.state_after(self.network.size)


def _fault_state(
    network: ComparatorNetwork,
    fault: Fault,
    prefix: PrefixStates,
    arena: PlaneArena | None = None,
) -> PackedBatch:
    """The packed output planes of the faulty device, restarted from the
    shared fault-free prefix state at the fault site.

    With an *arena* the state planes are reconstructed into the arena's
    ``state`` buffer and the suffix sweep runs on its comparator scratch —
    no per-stage allocation; the returned batch is a view of the arena and
    only valid until its next use.
    """
    comparators = network.comparators
    out = arena.state if arena is not None else None
    scratch = arena.tmp if arena is not None else None

    if isinstance(fault, StuckPassFault):
        index = _checked_index(network, fault.index)
        state = prefix.state_after(index, out=out)
        apply_comparators_packed(
            state.planes, comparators[index + 1 :], out=scratch
        )
    elif isinstance(fault, StuckSwapFault):
        index = _checked_index(network, fault.index)
        state = prefix.state_after(index, out=out)
        comp = comparators[index]
        if scratch is None:
            state.planes[[comp.low, comp.high]] = state.planes[
                [comp.high, comp.low]
            ]
        else:
            np.copyto(scratch, state.planes[comp.low])
            state.planes[comp.low] = state.planes[comp.high]
            state.planes[comp.high] = scratch
        apply_comparators_packed(
            state.planes, comparators[index + 1 :], out=scratch
        )
    elif isinstance(fault, ReversedComparatorFault):
        index = _checked_index(network, fault.index)
        state = prefix.state_after(index, out=out)
        apply_comparators_packed(
            state.planes, (comparators[index].flipped(),), out=scratch
        )
        apply_comparators_packed(
            state.planes, comparators[index + 1 :], out=scratch
        )
    elif isinstance(fault, LineStuckFault):
        state = _stuck_line_state(network, fault, prefix, arena=arena)
    else:
        # Unknown fault model: fall back to materialising the faulty
        # device and running it through the generic packed engine.
        faulty = fault.apply_to(network)
        state = apply_network_packed(
            faulty, prefix.state_after(0, out=out), copy=False, scratch=scratch
        )
    return state


# ----------------------------------------------------------------------
# Dominated-state pruning
# ----------------------------------------------------------------------
@allocation_free
def _pruned_fault_errors(
    network: ComparatorNetwork,
    fault: Fault,
    prefix: PrefixStates,
    stats: SimulationStats,
    arena: PlaneArena,
) -> dict[int, np.ndarray] | PackedBatch | None:
    """Suffix re-evaluation with dominated-state pruning (difference form).

    Instead of re-running the faulty suffix on full value planes, only the
    *error planes* ``err[line] = faulty_plane XOR fault_free_plane`` of the
    currently-diverged (*dirty*) lines are propagated.  Comparators whose
    inputs are all clean are skipped outright (their outputs are the
    fault-free outputs by determinism); a comparator with one dirty input
    needs just two bitwise operations, because for a standard comparator
    with clean line ``b``::

        err_low  = err_in & ff_b          # error survives the AND where b = 1
        err_high = err_in ^ err_low       # ... and the OR where b = 0

    (swapped for a reversed comparator; the two-dirty-input case evaluates
    the comparator on reconstructed values).  A line whose error plane
    becomes all-zero is clean again — *dominated* by the fault-free state —
    and a fault with no dirty lines left stops re-evaluating altogether.

    Every error plane lives in a slot of the scratch *arena*
    (:class:`repro.core.scratch.PlaneArena`): a comparator acquires two
    free pool rows, writes its outputs into them with ``out=`` ufuncs and
    recycles the rows it consumed, so the whole loop allocates **nothing**
    per stage.  The allocating PR-3 implementation is preserved as
    :func:`_pruned_fault_errors_alloc` (the benchmark baseline) and both
    are cross-checked bit-identical by the test suite.

    Returns ``None`` when the state converged to the fault-free state, a
    ``{line: error_plane}`` dict (views into the arena, valid until its
    next reset) for the lines still diverged at the output, or a full
    :class:`~repro.core.bitpacked.PackedBatch` for unknown fault models
    (generic fallback).  Bit-identical to :func:`_fault_state` by
    construction.
    """
    size = network.size
    n = network.n_lines
    n_blocks = prefix.input_planes.shape[1]
    last_writer, writer_pos = prefix.writer_tables()
    comps = prefix.comp_table()
    dviews = prefix.delta_views()
    iviews = prefix.input_views()
    nonzero = np.count_nonzero
    bxor = np.bitwise_xor
    band = np.bitwise_and
    bor = np.bitwise_or
    # A diverged plane almost always carries a set bit in the middle block,
    # so probing one scalar first makes "still dirty?" checks cheap; the
    # full reduction (count_nonzero — ~2.5× cheaper than ``.any()`` on
    # uint64 planes) only runs when the probe is zero.
    probe = n_blocks >> 1

    arena.reset()
    views = arena.views
    free = arena._free
    err = arena.err_slot  # the dirty-line index: line -> pool slot

    def line_value(stage: int, line: int) -> np.ndarray:
        index = last_writer[stage][line]
        if index < 0:
            return iviews[line]
        return dviews[index][writer_pos[stage][line]]

    forced_line = -1
    forced_plane: np.ndarray | None = None

    if isinstance(
        fault, (StuckPassFault, StuckSwapFault, ReversedComparatorFault)
    ):
        index = _checked_index(network, fault.index)
        start = index + 1
        c_lo, c_hi, _c_rev = comps[index]
        a = line_value(index, c_lo)
        b = line_value(index, c_hi)
        evaluated = 0
        if isinstance(fault, ReversedComparatorFault):
            baseline = size - index
            evaluated = 1
            # Swapping min and max flips exactly the positions where the
            # inputs differ — on both output lines (one slot per line, so
            # the second plane is a copy, not a shared row).
            s = free.pop()
            e = views[s]
            bxor(a, b, out=e)
            if e[probe] or nonzero(e):
                s_twin = free.pop()
                np.copyto(views[s_twin], e)
                err[c_lo] = s
                err[c_hi] = s_twin
            else:
                free.append(s)
        else:
            baseline = size - start
            lo_src, hi_src = (
                (a, b) if isinstance(fault, StuckPassFault) else (b, a)
            )
            d_lo, d_hi = dviews[index]
            s = free.pop()
            e = views[s]
            bxor(lo_src, d_lo, out=e)
            if e[probe] or nonzero(e):
                err[c_lo] = s
            else:
                free.append(s)
            s = free.pop()
            e = views[s]
            bxor(hi_src, d_hi, out=e)
            if e[probe] or nonzero(e):
                err[c_hi] = s
            else:
                free.append(s)
    elif isinstance(fault, LineStuckFault):
        if fault.line < 0 or fault.line >= n:
            raise FaultModelError(
                f"line {fault.line} out of range for {n} lines"
            )
        if fault.stage < 0 or fault.stage > size:
            raise FaultModelError(
                f"stage {fault.stage} out of range for a network of size {size}"
            )
        forced_line = fault.line
        forced_plane = prefix.pad_mask if fault.value else arena.zero
        start = fault.stage
        # The difference-form loop restarts at the forcing stage itself,
        # so its no-pruning baseline is the `size - stage` suffix stages it
        # can actually evaluate (the full-state path restarts one stage
        # earlier, but that extra stage is a restart artefact, not
        # dominated-state pruning).
        baseline = size - start
        evaluated = 0
        s = free.pop()
        e = views[s]
        bxor(forced_plane, line_value(start, forced_line), out=e)
        if e[probe] or nonzero(e):
            err[forced_line] = s
        else:
            free.append(s)
    else:
        # Unknown fault model: no prefix-restart structure to exploit.
        stats.evaluated_stage_blocks += size * n_blocks
        stats.faults += 1
        return _fault_state(network, fault, prefix, arena=arena)

    stats.faults += 1
    err_get = err.get
    for i in range(start, size):
        lo, hi, rev = comps[i]
        s_a = err_get(lo)
        s_b = err_get(hi)
        if s_a is None and s_b is None:
            # Clean inputs: fault-free outputs by determinism.  Only a
            # stuck line needs re-checking, because forcing re-applies
            # after every stage that writes it.
            if forced_line == lo or forced_line == hi:
                assert forced_plane is not None
                s = free.pop()
                e = views[s]
                bxor(
                    forced_plane,
                    dviews[i][0 if forced_line == lo else 1],
                    out=e,
                )
                if e[probe] or nonzero(e):
                    err[forced_line] = s
                else:
                    free.append(s)
            continue
        evaluated += 1
        s_and = free.pop()
        s_or = free.pop()
        t_and = views[s_and]
        t_or = views[s_or]
        if s_b is None:
            assert s_a is not None
            e_in = views[s_a]
            band(e_in, line_value(i, hi), out=t_and)
            bxor(e_in, t_and, out=t_or)
        elif s_a is None:
            e_in = views[s_b]
            band(e_in, line_value(i, lo), out=t_and)
            bxor(e_in, t_and, out=t_or)
        else:
            e_a = views[s_a]
            e_b = views[s_b]
            d_lo, d_hi = dviews[i]
            # Reconstruct the faulty values in the temp rows, then reuse
            # the (now dead) old error rows for the AND/OR intermediates.
            bxor(line_value(i, lo), e_a, out=t_and)  # v_a
            bxor(line_value(i, hi), e_b, out=t_or)   # v_b
            band(t_and, t_or, out=e_a)
            bor(t_and, t_or, out=e_b)
            if rev:
                bxor(e_a, d_hi, out=t_and)
                bxor(e_b, d_lo, out=t_or)
            else:
                bxor(e_a, d_lo, out=t_and)
                bxor(e_b, d_hi, out=t_or)
        if s_a is not None:
            del err[lo]
            free.append(s_a)
        if s_b is not None:
            del err[hi]
            free.append(s_b)
        s_lo, s_hi = (s_or, s_and) if rev else (s_and, s_or)
        e_lo = views[s_lo]
        if e_lo[probe] or nonzero(e_lo):
            err[lo] = s_lo
        else:
            free.append(s_lo)
        e_hi = views[s_hi]
        if e_hi[probe] or nonzero(e_hi):
            err[hi] = s_hi
        else:
            free.append(s_hi)
        if forced_line == lo or forced_line == hi:
            assert forced_plane is not None
            s = free.pop()
            e = views[s]
            bxor(
                forced_plane, dviews[i][0 if forced_line == lo else 1], out=e
            )
            old = err.pop(forced_line, None)
            if old is not None:
                free.append(old)
            if e[probe] or nonzero(e):
                err[forced_line] = s
            else:
                free.append(s)
        if not err and forced_line < 0:
            # Converged: the remaining suffix maps equal states to equal
            # states, so the faulty output equals the fault-free output.
            # (A stuck line cannot take this exit — forcing may re-diverge
            # later — but the skip branch above keeps its tail cheap.)
            break
    stats.evaluated_stage_blocks += evaluated * n_blocks
    stats.pruned_stage_blocks += (baseline - evaluated) * n_blocks
    if not err:
        stats.converged_faults += 1
        return None
    return arena.error_planes()


def _pruned_fault_errors_alloc(
    network: ComparatorNetwork,
    fault: Fault,
    prefix: PrefixStates,
    stats: SimulationStats,
) -> dict[int, np.ndarray] | PackedBatch | None:
    """The PR-3 allocating form of :func:`_pruned_fault_errors`.

    Identical algorithm (and identical :class:`SimulationStats`
    accounting), but every bitwise operation allocates a fresh plane.
    Kept as the measured baseline of the scratch-arena speedup gate in
    ``benchmarks/parallel_smoke.py`` (``arena=False`` selects it) and as a
    bit-identity oracle in the test suite.
    """
    comparators = network.comparators
    size = network.size
    n = network.n_lines
    deltas = prefix.deltas
    input_planes = prefix.input_planes
    n_blocks = input_planes.shape[1]
    last_writer, writer_pos = prefix.writer_tables()
    probe = n_blocks >> 1

    def line_value(stage: int, line: int) -> np.ndarray:
        index = last_writer[stage][line]
        if index < 0:
            return input_planes[line]
        return deltas[index, writer_pos[stage][line]]

    err: dict[int, np.ndarray] = {}
    forced_line = -1
    forced_plane: np.ndarray | None = None

    if isinstance(
        fault, (StuckPassFault, StuckSwapFault, ReversedComparatorFault)
    ):
        index = _checked_index(network, fault.index)
        start = index + 1
        comp = comparators[index]
        a = line_value(index, comp.low)
        b = line_value(index, comp.high)
        evaluated = 0
        if isinstance(fault, ReversedComparatorFault):
            baseline = size - index
            evaluated = 1
            # Swapping min and max flips exactly the positions where the
            # inputs differ — on both output lines.
            e = a ^ b
            if e[probe] or e.any():
                err[comp.low] = e
                err[comp.high] = e
        else:
            baseline = size - start
            lo_src, hi_src = (
                (a, b) if isinstance(fault, StuckPassFault) else (b, a)
            )
            e_lo = lo_src ^ deltas[index, 0]
            e_hi = hi_src ^ deltas[index, 1]
            if e_lo[probe] or e_lo.any():
                err[comp.low] = e_lo
            if e_hi[probe] or e_hi.any():
                err[comp.high] = e_hi
    elif isinstance(fault, LineStuckFault):
        if fault.line < 0 or fault.line >= n:
            raise FaultModelError(
                f"line {fault.line} out of range for {n} lines"
            )
        if fault.stage < 0 or fault.stage > size:
            raise FaultModelError(
                f"stage {fault.stage} out of range for a network of size {size}"
            )
        forced_line = fault.line
        forced_plane = (
            prefix.pad_mask
            if fault.value
            else np.zeros(n_blocks, dtype=input_planes.dtype)
        )
        start = fault.stage
        # Same corrected baseline as the arena path: `size - stage` stages
        # are all the difference-form loop could ever evaluate.
        baseline = size - start
        evaluated = 0
        e = forced_plane ^ line_value(start, forced_line)
        if e[probe] or e.any():
            err[forced_line] = e
    else:
        # Unknown fault model: no prefix-restart structure to exploit.
        stats.evaluated_stage_blocks += size * n_blocks
        stats.faults += 1
        return _fault_state(network, fault, prefix)

    stats.faults += 1
    for i in range(start, size):
        comp = comparators[i]
        lo = comp.low
        hi = comp.high
        e_a = err.get(lo)
        e_b = err.get(hi)
        if e_a is None and e_b is None:
            # Clean inputs: fault-free outputs by determinism.  Only a
            # stuck line needs re-checking, because forcing re-applies
            # after every stage that writes it.
            if forced_line == lo or forced_line == hi:
                assert forced_plane is not None
                e = forced_plane ^ deltas[i, 0 if forced_line == lo else 1]
                if e[probe] or e.any():
                    err[forced_line] = e
            continue
        evaluated += 1
        if e_b is None:
            assert e_a is not None
            e_and = e_a & line_value(i, hi)
            e_or = e_a ^ e_and
        elif e_a is None:
            e_and = e_b & line_value(i, lo)
            e_or = e_b ^ e_and
        else:
            v_a = line_value(i, lo) ^ e_a
            v_b = line_value(i, hi) ^ e_b
            if comp.reversed:
                e_and = (v_a & v_b) ^ deltas[i, 1]
                e_or = (v_a | v_b) ^ deltas[i, 0]
            else:
                e_and = (v_a & v_b) ^ deltas[i, 0]
                e_or = (v_a | v_b) ^ deltas[i, 1]
        e_lo, e_hi = (e_or, e_and) if comp.reversed else (e_and, e_or)
        if e_lo[probe] or e_lo.any():
            err[lo] = e_lo
        else:
            err.pop(lo, None)
        if e_hi[probe] or e_hi.any():
            err[hi] = e_hi
        else:
            err.pop(hi, None)
        if forced_line == lo or forced_line == hi:
            assert forced_plane is not None
            e = forced_plane ^ deltas[i, 0 if forced_line == lo else 1]
            if e[probe] or e.any():
                err[forced_line] = e
            else:
                err.pop(forced_line, None)
        if not err and forced_line < 0:
            # Converged: the remaining suffix maps equal states to equal
            # states, so the faulty output equals the fault-free output.
            # (A stuck line cannot take this exit — forcing may re-diverge
            # later — but the skip branch above keeps its tail cheap.)
            break
    stats.evaluated_stage_blocks += evaluated * n_blocks
    stats.pruned_stage_blocks += (baseline - evaluated) * n_blocks
    if not err:
        stats.converged_faults += 1
        return None
    return err


def _row_from_errors_alloc(
    reference: PackedBatch,
    err: dict[int, np.ndarray],
    criterion: str,
    pad_mask: np.ndarray,
) -> np.ndarray:
    """Allocating form of :func:`_row_from_errors` (no arena).

    Selected by ``arena=False`` (the legacy code paths); every bitwise
    step allocates a fresh plane.  Bit-identical to the arena form.
    """
    from ..core.bitpacked import unpack_bits

    if criterion == "reference":
        if not err:
            return np.zeros(reference.num_words, dtype=bool)
        acc: np.ndarray | None = None
        for e in err.values():
            acc = e.copy() if acc is None else (acc | e)
        assert acc is not None
        return unpack_bits(acc, reference.num_words)
    planes = reference.planes
    n = planes.shape[0]
    if n <= 1:
        return np.zeros(reference.num_words, dtype=bool)
    mask = np.zeros(planes.shape[1], dtype=planes.dtype)
    prev = planes[0] ^ err[0] if 0 in err else planes[0]
    for i in range(1, n):
        cur = planes[i] ^ err[i] if i in err else planes[i]
        mask |= prev & ~cur
        prev = cur
    mask &= pad_mask
    return unpack_bits(mask, reference.num_words)


@allocation_free
def _row_from_errors(
    reference: PackedBatch,
    err: dict[int, np.ndarray],
    criterion: str,
    pad_mask: np.ndarray,
    arena: PlaneArena,
) -> np.ndarray:
    """Detection row of a fault given its output error planes.

    The faulty output is ``reference XOR err`` line by line, so the
    ``"reference"`` criterion is just the OR of the error planes, and the
    ``"specification"`` criterion fuses the XOR into the usual adjacent-pair
    sortedness sweep — no full faulty state is ever materialised.  The sweep
    temporaries live in pool rows of the *arena* (``out=`` ufuncs), so the
    only allocation is the unpacked boolean result row itself;
    :func:`_row_from_errors_alloc` is the legacy allocating form.

    An empty *err* means the faulty output equals the reference on every
    word: all-false under ``"reference"``, the reference's own violation
    row under ``"specification"`` (which the sweep below yields naturally).
    Today the pruned engine returns ``None`` instead of an empty dict, so
    this is defensive — future callers must not trip an assertion.
    """
    from ..core.bitpacked import unpack_bits

    if criterion == "reference":
        if not err:
            return np.zeros(reference.num_words, dtype=bool)  # repro: noqa RPR001 — degenerate result row
        s_acc = arena.acquire()
        acc_row = arena.plane(s_acc)
        first = True
        for e in err.values():
            if first:
                np.copyto(acc_row, e)
                first = False
            else:
                np.bitwise_or(acc_row, e, out=acc_row)
        row = unpack_bits(acc_row, reference.num_words)
        arena.release(s_acc)
        return row
    planes = reference.planes
    n = planes.shape[0]
    if n <= 1:
        return np.zeros(reference.num_words, dtype=bool)  # repro: noqa RPR001 — degenerate result row
    s_mask = arena.acquire()
    s_even = arena.acquire()
    s_odd = arena.acquire()
    s_tmp = arena.acquire()
    mask = arena.plane(s_mask)
    mask[...] = 0
    faulty = (arena.plane(s_even), arena.plane(s_odd))
    tmp = arena.plane(s_tmp)
    if 0 in err:
        np.bitwise_xor(planes[0], err[0], out=faulty[0])
        prev = faulty[0]
    else:
        prev = planes[0]
    for i in range(1, n):
        if i in err:
            # Alternate the two line buffers so `prev` survives this write.
            cur = faulty[i & 1]
            np.bitwise_xor(planes[i], err[i], out=cur)
        else:
            cur = planes[i]
        np.invert(cur, out=tmp)
        np.bitwise_and(tmp, prev, out=tmp)
        np.bitwise_or(mask, tmp, out=mask)
        prev = cur
    np.bitwise_and(mask, pad_mask, out=mask)
    row = unpack_bits(mask, reference.num_words)
    arena.release(s_tmp)
    arena.release(s_odd)
    arena.release(s_even)
    arena.release(s_mask)
    return row


def _resolve_arena(
    arena: PlaneArena | bool | None,
    n_lines: int,
    n_blocks: int,
    dtype: np.dtype,
) -> PlaneArena | None:
    """Resolve the public ``arena`` knob into a ready arena (or ``None``).

    ``None``/``True`` → this thread's shared arena for the plane geometry
    (worker-local in pool processes — reset between tiles, never
    reallocated while the geometry is stable); a :class:`PlaneArena` →
    that instance, resized on a geometry change; ``False`` → ``None``,
    selecting the legacy allocating code paths.
    """
    if arena is False:
        return None
    if isinstance(arena, PlaneArena):
        return arena.ensure(n_lines, n_blocks, dtype)
    return shared_arena(n_lines, n_blocks, dtype)


def _fault_rows(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    prefix: PrefixStates,
    criterion: str,
    out: np.ndarray,
    *,
    prune: bool = False,
    stats: SimulationStats | None = None,
    arena: PlaneArena | bool | None = None,
) -> np.ndarray:
    """Fill ``out[row]`` with the detection row of ``faults[row]``.

    ``out`` may be a slice of a shared-memory matrix — this is the unit of
    work a sharded worker executes on its (fault-slice × vector-chunk)
    tile.  With ``prune=True`` the dominated-state pruner runs and faults
    whose state converged inherit the fault-free detection row.  One
    resolved *arena* (see :func:`_resolve_arena`) serves every fault of
    the call; ``arena=False`` keeps the legacy allocating paths.
    """
    reference = prefix.reference()
    pool = _resolve_arena(
        arena,
        network.n_lines,
        prefix.input_planes.shape[1],
        prefix.input_planes.dtype,
    )
    if not prune:
        for row, fault in enumerate(faults):
            state = _fault_state(network, fault, prefix, arena=pool)
            out[row] = _detection_row(state, reference, criterion, arena=pool)
        return out
    if stats is None:
        stats = SimulationStats()
    converged_row = _detection_row(reference, reference, criterion, arena=pool)
    pad_mask = reference.pad_mask()
    for row, fault in enumerate(faults):
        result = (
            _pruned_fault_errors(network, fault, prefix, stats, pool)
            if pool is not None
            else _pruned_fault_errors_alloc(network, fault, prefix, stats)
        )
        if result is None:
            out[row] = converged_row
        elif isinstance(result, PackedBatch):
            out[row] = _detection_row(result, reference, criterion, arena=pool)
        else:
            out[row] = (
                _row_from_errors(reference, result, criterion, pad_mask, pool)
                if pool is not None
                else _row_from_errors_alloc(reference, result, criterion, pad_mask)
            )
    return out


@allocation_free
def _errors_detect(
    reference: PackedBatch,
    err: dict[int, np.ndarray],
    criterion: str,
    pad_mask: np.ndarray,
    ref_pair_any: Sequence[bool],
    arena: PlaneArena | None = None,
) -> bool:
    """Does a fault with output error planes *err* detect on any word?

    The ``"reference"`` criterion is immediate: a non-empty error dict means
    some output line differs somewhere.  For ``"specification"`` only the
    adjacent-line pairs touching a diverged line can change their violation
    mask, so the sweep recomputes just those pairs (early-exiting on the
    first violation) and reads the untouched pairs' verdicts from the
    per-chunk precomputed *ref_pair_any*.  With an *arena* the pair sweep
    runs on pool rows via ``out=`` ufuncs (no allocation).
    """
    if criterion == "reference":
        return True
    planes = reference.planes
    n = planes.shape[0]
    pairs: set[int] = set()
    for line in err:
        if line > 0:
            pairs.add(line - 1)
        if line < n - 1:
            pairs.add(line)
    if any(
        ref_violates and j not in pairs
        for j, ref_violates in enumerate(ref_pair_any)
    ):
        return True
    if arena is None:
        for j in pairs:
            prev = planes[j] ^ err[j] if j in err else planes[j]
            nxt = planes[j + 1] ^ err[j + 1] if j + 1 in err else planes[j + 1]
            violation = prev & ~nxt & pad_mask
            if violation.any():
                return True
        return False
    s_prev = arena.acquire()
    s_next = arena.acquire()
    s_tmp = arena.acquire()
    t_prev = arena.plane(s_prev)
    t_next = arena.plane(s_next)
    tmp = arena.plane(s_tmp)
    detected = False
    for j in pairs:
        if j in err:
            np.bitwise_xor(planes[j], err[j], out=t_prev)
            prev = t_prev
        else:
            prev = planes[j]
        if j + 1 in err:
            np.bitwise_xor(planes[j + 1], err[j + 1], out=t_next)
            nxt = t_next
        else:
            nxt = planes[j + 1]
        np.invert(nxt, out=tmp)
        np.bitwise_and(tmp, prev, out=tmp)
        np.bitwise_and(tmp, pad_mask, out=tmp)
        if tmp.any():
            detected = True
            break
    arena.release(s_tmp)
    arena.release(s_next)
    arena.release(s_prev)
    return detected


def _fault_any(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    prefix: PrefixStates,
    criterion: str,
    detected: np.ndarray,
    *,
    prune: bool = False,
    stats: SimulationStats | None = None,
    arena: PlaneArena | bool | None = None,
) -> np.ndarray:
    """OR one vector chunk's detection verdicts into ``detected``.

    The any-reduction unit of work: with ``prune=True`` the dominated-state
    pruner runs, verdicts are taken straight from the packed violation
    masks (no boolean row is ever expanded), and faults already detected by
    an earlier chunk are *dropped* — skipped entirely, since another
    detection cannot change the OR.  ``prune=False`` reproduces the plain
    row-building loop.  Either way ``detected`` ends up identical.  The
    *arena* knob follows :func:`_fault_rows`.
    """
    if not prune:
        rows = np.zeros((len(faults), prefix.num_words), dtype=bool)
        _fault_rows(network, faults, prefix, criterion, rows, arena=arena)
        detected |= rows.any(axis=1)
        return detected
    if stats is None:
        stats = SimulationStats()
    pool = _resolve_arena(
        arena,
        network.n_lines,
        prefix.input_planes.shape[1],
        prefix.input_planes.dtype,
    )
    reference = prefix.reference()
    pad_mask = reference.pad_mask()
    planes = reference.planes
    ref_pair_any: list[bool] = []
    if criterion == "specification":
        ref_pair_any = [
            bool((planes[j] & ~planes[j + 1] & pad_mask).any())
            for j in range(reference.n_lines - 1)
        ]
    ref_detect = any(ref_pair_any)
    for row, fault in enumerate(faults):
        if detected[row]:
            stats.dropped_faults += 1
            continue
        result = (
            _pruned_fault_errors(network, fault, prefix, stats, pool)
            if pool is not None
            else _pruned_fault_errors_alloc(network, fault, prefix, stats)
        )
        if result is None:
            detected[row] = ref_detect
        elif isinstance(result, PackedBatch):
            detected[row] = bool(
                _detection_row(result, reference, criterion, arena=pool).any()
            )
        else:
            detected[row] = _errors_detect(
                reference, result, criterion, pad_mask, ref_pair_any, arena=pool
            )
    return detected


# ----------------------------------------------------------------------
# Streamed vector axis (serial; the sharded grid lives in repro.parallel)
# ----------------------------------------------------------------------
def _iter_packed_chunks(
    network: ComparatorNetwork,
    vectors,
    config: ExecutionConfig | None,
) -> Iterator[tuple[int, PackedBatch]]:
    """Yield ``(word_start, packed_chunk)`` pairs along the vector axis.

    :class:`CubeVectors` chunks are generated directly in packed form via
    :func:`repro.core.bitpacked.packed_cube_range`; explicit batches are
    normalised once and packed slice by slice.  The chunk size follows
    ``config.chunk_words()`` (the streaming default when *config* is
    ``None``).
    """
    from ..parallel.chunking import chunk_spans, cube_block_spans
    from ..parallel.config import DEFAULT_CHUNK_WORDS

    chunk_words = config.chunk_words() if config is not None else DEFAULT_CHUNK_WORDS
    if isinstance(vectors, CubeVectors):
        for block_start, block_stop in cube_block_spans(vectors.n, chunk_words):
            yield (
                block_start * BLOCK_BITS,
                packed_cube_range(vectors.n, block_start, block_stop),
            )
        return
    if isinstance(vectors, np.ndarray):
        batch = vectors
    else:
        batch = words_to_array(vectors, dtype=np.int8, n_lines=network.n_lines)
    for start, stop in chunk_spans(batch.shape[0], chunk_words):
        yield start, _pack_vectors(network, batch[start:stop])


def _streamed_bitpacked_detection(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    vectors,
    criterion: str,
    config: ExecutionConfig | None,
    *,
    prune: bool,
    stats: SimulationStats | None,
    arena: PlaneArena | bool | None = None,
    cache: ResultCache | None = None,
    base_token: tuple | None = None,
    reduce: str,
) -> np.ndarray:
    """Serial streamed detection: one packed chunk (and its prefix states)
    resident at a time, matrix columns or the any-reduction filled per
    chunk.  In any-reduction mode verdicts come straight from the packed
    violation masks and (with *prune*) faults detected by an earlier chunk
    are dropped from later ones.  The scratch arena is resolved per chunk
    (same geometry → a pure reset, so equal-sized chunks share one arena).
    With a *cache*, prefix states are acquired through the incremental
    front end and whole chunk verdicts (plus their pruning-counter deltas)
    are replayed on a hit — bit-identical either way, including the
    accumulated :class:`SimulationStats`."""
    from ..cache.restore import acquire_prefix_states

    num_faults = len(faults)
    chunks_seen = 0
    caching = cache is not None and base_token is not None
    net_token: tuple = ()
    faults_token: tuple = ()
    if caching:
        from ..cache.keys import faults_token as universe_token
        from ..cache.keys import network_token

        net_token = network_token(network)
        faults_token = universe_token(faults)
    if reduce == "any":
        detected = np.zeros(num_faults, dtype=bool)
        for word_start, packed in _iter_packed_chunks(network, vectors, config):
            chunks_seen += 1
            if not caching:
                prefix = acquire_prefix_states(network, packed)
                _fault_any(
                    network, faults, prefix, criterion, detected,
                    prune=prune, stats=stats, arena=arena,
                )
                continue
            token = (*base_token, word_start, packed.num_words)
            # The incoming detected mask is part of the key: under fault
            # dropping a chunk's work depends on what earlier chunks found.
            verdict_key = (
                "fault-any", net_token, token, criterion, bool(prune),
                faults_token, detected.tobytes(),
            )
            hit = cache.get_verdict(verdict_key)
            if hit is not None:
                np.copyto(detected, hit[0])
                if stats is not None:
                    stats.merge_counts(hit[1])
                continue
            local = SimulationStats()
            prefix = acquire_prefix_states(
                network, packed, cache=cache, token=token, arena=arena
            )
            _fault_any(
                network, faults, prefix, criterion, detected,
                prune=prune, stats=local, arena=arena,
            )
            cache.put_verdict(verdict_key, (detected.copy(), local.counts()))
            if stats is not None:
                stats.merge_counts(local.counts())
        if stats is not None:
            stats.planned_grid = (1, chunks_seen)
        return detected
    out = np.zeros((num_faults, len(vectors)), dtype=bool)
    rows: np.ndarray | None = None
    for word_start, packed in _iter_packed_chunks(network, vectors, config):
        chunks_seen += 1
        token = verdict_key = None
        if caching:
            token = (*base_token, word_start, packed.num_words)
            verdict_key = (
                "fault-rows", net_token, token, criterion, bool(prune),
                faults_token,
            )
            hit = cache.get_verdict(verdict_key)
            if hit is not None:
                out[:, word_start : word_start + packed.num_words] = hit[0]
                if stats is not None:
                    stats.merge_counts(hit[1])
                continue
        prefix = acquire_prefix_states(
            network, packed, cache=cache if caching else None, token=token,
            arena=arena,
        )
        if rows is None or rows.shape[1] != packed.num_words:
            rows = np.zeros((num_faults, packed.num_words), dtype=bool)
        local = SimulationStats() if caching else None
        _fault_rows(
            network, faults, prefix, criterion, rows,
            prune=prune, stats=local if caching else stats, arena=arena,
        )
        out[:, word_start : word_start + packed.num_words] = rows
        if caching:
            cache.put_verdict(verdict_key, (rows.copy(), local.counts()))
            if stats is not None:
                stats.merge_counts(local.counts())
    if stats is not None:
        stats.planned_grid = (1, chunks_seen)
    return out


def _bitpacked_detection_matrix(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    vectors,
    criterion: str,
    *,
    prune: bool = True,
    stats: SimulationStats | None = None,
    arena: PlaneArena | bool | None = None,
    cache: ResultCache | None = None,
    base_token: tuple | None = None,
) -> np.ndarray:
    from ..cache.restore import acquire_prefix_states

    caching = cache is not None and base_token is not None
    if not caching:
        packed_input = _pack_vectors(network, vectors)
        prefix = acquire_prefix_states(network, packed_input)
        matrix = np.zeros((len(faults), packed_input.num_words), dtype=bool)
        return _fault_rows(
            network, faults, prefix, criterion, matrix, prune=prune,
            stats=stats, arena=arena,
        )
    from ..cache.keys import faults_token, network_token

    token = (*base_token, 0, len(vectors))
    verdict_key = (
        "fault-rows", network_token(network), token, criterion, bool(prune),
        faults_token(faults),
    )
    hit = cache.get_verdict(verdict_key)
    if hit is not None:
        if stats is not None:
            stats.merge_counts(hit[1])
        return hit[0].copy()
    packed_input = cache.get_input(token)
    if packed_input is None:
        packed_input = _pack_vectors(network, vectors)
        cache.put_input(token, packed_input)
    prefix = acquire_prefix_states(
        network, packed_input, cache=cache, token=token, arena=arena
    )
    matrix = np.zeros((len(faults), packed_input.num_words), dtype=bool)
    local = SimulationStats()
    _fault_rows(
        network, faults, prefix, criterion, matrix, prune=prune,
        stats=local, arena=arena,
    )
    cache.put_verdict(verdict_key, (matrix.copy(), local.counts()))
    if stats is not None:
        stats.merge_counts(local.counts())
    return matrix


def _pack_vectors(network: ComparatorNetwork, vectors) -> PackedBatch:
    """Pack normalised test vectors (tuple list or 2-D ndarray fast path)."""
    if isinstance(vectors, np.ndarray):
        from ..core.bitpacked import pack_batch

        return pack_batch(vectors, n_lines=network.n_lines)
    return pack_words(vectors, n_lines=network.n_lines)


def _checked_index(network: ComparatorNetwork, index: int) -> int:
    _check_index(network, index)
    return index


def _stuck_line_state(
    network: ComparatorNetwork,
    fault: LineStuckFault,
    prefix: PrefixStates,
    arena: PlaneArena | None = None,
) -> PackedBatch:
    if fault.line < 0 or fault.line >= network.n_lines:
        raise FaultModelError(
            f"line {fault.line} out of range for {network.n_lines} lines"
        )
    if fault.stage < 0 or fault.stage > network.size:
        raise FaultModelError(
            f"stage {fault.stage} out of range for a network of size "
            f"{network.size}"
        )
    forced = prefix.pad_mask if fault.value else np.uint64(0)
    # The faulty state first diverges when the line is forced: at the input
    # for stage 0, otherwise right after comparator stage-1 — so the shared
    # fault-free prefix extends through comparator stage-2.
    start = max(fault.stage - 1, 0)
    out = arena.state if arena is not None else None
    scratch = arena.tmp if arena is not None else None
    state = prefix.state_after(start, out=out)
    if fault.stage == 0:
        state.planes[fault.line] = forced
    for position in range(start, network.size):
        apply_comparators_packed(
            state.planes, (network.comparators[position],), out=scratch
        )
        if position + 1 >= fault.stage:
            state.planes[fault.line] = forced
    return state


def detected_faults(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str = "vectorized",
    config: ExecutionConfig | None = None,
) -> list[Fault]:
    """The faults detected by at least one of the given test vectors.

    Parameters are those of :func:`fault_detection_matrix`; the reduction
    runs through :func:`fault_detection_any`, so exhaustive
    (:class:`CubeVectors`) sources stay in constant memory.
    """
    detected_rows = _fault_detection_any_impl(
        network, faults, test_vectors, criterion=criterion, engine=engine,
        config=config,
    )
    return [fault for fault, hit in zip(faults, detected_rows) if hit]


def undetected_faults(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str = "vectorized",
    config: ExecutionConfig | None = None,
) -> list[Fault]:
    """The faults that escape the given test vectors entirely.

    Note that some faults are genuinely *undetectable* under the
    ``"specification"`` criterion: a fault whose network still sorts every
    input (e.g. a stuck-pass fault on a redundant comparator) produces a
    chip that, while physically defective, still meets its specification.
    """
    detected_rows = _fault_detection_any_impl(
        network, faults, test_vectors, criterion=criterion, engine=engine,
        config=config,
    )
    return [fault for fault, hit in zip(faults, detected_rows) if not hit]
