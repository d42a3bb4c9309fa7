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

Three simulation engines are available, cross-checked against each other
by the test suite.  Without an ``engine`` pin a call routes by its
vectors (:func:`repro.core.evaluation.route_engine`): 0/1 vectors and
:class:`CubeVectors` run ``"bitpacked"``, other vectors ``"vectorized"``.
A pin (the ``engine`` of a :class:`repro.api.Session`) runs that engine:

``"scalar"``
    One :meth:`~repro.core.network.ComparatorNetwork.apply` call per
    (fault, vector) pair.  The slow reference.
``"vectorized"``
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

Dominated-state pruning (the Session's ``prune``, on by default for the
bit-packed engine) cuts the ``O(size**2 / 2)`` suffix work further: after
every suffix stage the faulty planes are compared against the fault-free
planes that :class:`PrefixStates` already holds, per line.  Lines whose
planes agree with the fault-free run are *clean* and comparators whose
inputs are all clean are skipped outright (their outputs are fault-free by determinism);
a fault whose state has fully converged stops re-evaluating altogether and
inherits the fault-free detection row.  The skipped work is reported
through :class:`SimulationStats` and the result is bit-identical to the
unpruned path by construction (see ``tests/test_fault_streaming.py``).

Below :data:`_STACK_MAX_BLOCKS` blocks per plane the pruned kernel does
not run one fault at a time: :func:`_sweep_stack` carries a *stack* of
faults through the suffix and issues one set of ufunc calls per
comparator for every stacked fault with a dirty input, keeping per-fault
dirty masks so the counters are those of the one-fault kernel.

The coverage (any-reduction) kernel saves whole fault simulations on top
of that, in two ways.  *Fault dropping*: a fault detected by an earlier
vector chunk is skipped in later chunks — and without a ``chunk_size``
the vectors stream on an early-exit schedule
(:func:`repro.core.bitpacked.early_exit_spans`: the first sixteenth, at
least 64 blocks, then the rest), so most faults are dropped before the
large planes.  *Twin sharing*: a line stuck-at
fault placed at stage ``s`` is the same faulty device as one placed at
``s'`` whenever no comparator touches the line between the two stages,
so faults with the same ``(line, value, last writer of the line)`` form
one class and only its first undecided member runs the kernel; the
others take its verdict and replay its counters.  The stage-extended
single-fault universe (``3·size + 2n(size + 1)`` faults) then costs
``3·size + 2(2·size + n)`` kernel runs per chunk.  The matrix path
(:func:`fault_detection_matrix`) still simulates every fault.

The pruned hot loop runs allocation-free on a scratch-plane arena
(:class:`repro.core.scratch.PlaneArena`): every error plane lives in a
reusable slot pool (or the arena's fault stack) written through ``out=``
ufuncs.  Every call, from a Session or a free function, serial or in a
pool worker, takes its arena from this thread's
:func:`repro.core.scratch.shared_arena` cache for the chunk geometry, so
one arena serves all faults of a run and every later chunk, tile and
call of that geometry.

Every serial bit-packed call runs one chunk loop
(:func:`_streamed_bitpacked_detection`): the any-reduction on the
early-exit schedule, a cube matrix in chunks of
:data:`repro.parallel.config.DEFAULT_CHUNK_WORDS`, and an explicit
matrix as one chunk that spans its vectors, unless the Session sets a
``chunk_size``.

The vector axis streams exactly like exhaustive verification does: pass a
:class:`CubeVectors` marker (the full ``2**n`` cube, never materialised) or
run any explicit batch on a Session with a ``chunk_size`` and the packed
chunks are (re)generated per block range via
:func:`repro.core.bitpacked.packed_cube_range` — constant memory at any
``n``, and a 2-D (faults × vector-chunks) work grid across processes when
the Session has more than one worker.

The main entry point :func:`fault_detection_matrix` returns a boolean matrix
``(num_faults, num_vectors)``; :func:`fault_detection_any` reduces the
vector axis on the fly (the constant-memory form used by the coverage
helpers in :mod:`repro.faults.coverage`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._registry import EVALUATION_ENGINES
from .._typing import WordLike, as_word
from ..core.bitpacked import (
    BLOCK_BITS,
    PackedBatch,
    apply_comparators_packed,
    apply_network_packed,
    early_exit_spans,
    packed_cube_range,
)
from ..core.evaluation import (
    apply_network_to_batch,
    batch_is_sorted,
    narrow_binary_batch,
    route_engine,
    route_words,
    words_to_array,
)
from ..core.network import ComparatorNetwork
from ..core.scratch import FaultStack, PlaneArena, allocation_free, shared_arena
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

#: The simulation engines (the evaluation engines of
#: :mod:`repro.core.evaluation`, spelt out once in :mod:`repro._registry`).
SIMULATION_ENGINES = EVALUATION_ENGINES


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

    The counters describe the *per-fault* pruned simulation, whatever
    route produced the verdicts: a line stuck-at twin that took its
    class representative's verdict, and a cached chunk verdict, replay
    exactly the counts their own simulation would have added.  So
    ``faults`` and ``evaluated_stage_blocks`` (and the rest) do not depend
    on the route — serial, streamed, sharded or cached — only on the
    chunking, and not on how many kernel runs the twin sharing saved.

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
    stats: SimulationStats | None = None,
) -> np.ndarray:
    """Boolean matrix ``D[f, t]``: does test vector ``t`` detect fault ``f``?

    Rows follow the order of *faults*, columns the order of *test_vectors*.
    This runs in-process on the kernel of the vectors' value domain
    (module docstring); a :class:`repro.api.Session` pins the engine and
    chooses workers, chunk size and pruning
    (``session.fault_matrix(...)`` returns the same matrix inside a typed
    result object).  All engines and execution configurations produce
    bit-identical matrices on 0/1 vectors.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free reference device.
    faults : sequence of Fault
        Faults to simulate, one matrix row each.
    test_vectors : sequence of words, 2-D integer array, or CubeVectors
        The vectors to apply, one matrix column each.  A 2-D array is used
        as-is (zero-copy fast path); a :class:`CubeVectors` marker stands
        for the exhaustive cube, which the bit-packed engine streams in
        packed block ranges without materialising it.
    criterion : {"specification", "reference"}, optional
        Detection criterion (module docstring).
    stats : SimulationStats, optional
        Accumulates pruning counters across chunks and workers.

    Returns
    -------
    numpy.ndarray
        Boolean array of shape ``(len(faults), num_vectors)``.  For
        cube-scale vector counts prefer :func:`fault_detection_any`, which
        never materialises the matrix.
    """
    return _fault_detection_matrix_impl(
        network, faults, test_vectors, criterion=criterion, stats=stats
    )


def _fault_detection_matrix_impl(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str | None = None,
    config: ExecutionConfig | None = None,
    prune: bool = True,
    stats: SimulationStats | None = None,
    cache: ResultCache | None = None,
) -> np.ndarray:
    """:func:`fault_detection_matrix` with its execution configured.

    This is what the :class:`repro.api.Session` facade (and the other
    internal callers) invoke.  *engine* pins the simulation engine;
    ``None`` routes by the vectors (module docstring).  *config* with
    ``max_workers > 1`` shards the work across
    a process pool: the fault axis alone when the vector batch fits one
    chunk (prefix states computed once, published through shared memory),
    or a 2-D (faults × vector-chunks) grid when the vector axis streams;
    an explicit ``chunk_size`` bounds the packed working set per process.
    *prune* enables dominated-state pruning in the bit-packed engine (the
    matrix is identical either way).  *cache* is a
    :class:`repro.cache.ResultCache` consulted by the bit-packed paths for
    prefix states and per-chunk verdict rows; results are bit-identical
    with or without it (other engines ignore it).
    """
    if criterion not in DETECTION_CRITERIA:
        raise FaultModelError(
            f"unknown detection criterion {criterion!r}; "
            f"choose one of {DETECTION_CRITERIA}"
        )
    return _detection_run(
        network,
        faults,
        test_vectors,
        criterion=criterion,
        engine=engine,
        config=config,
        prune=prune,
        stats=stats,
        cache=cache,
        reduce="matrix",
    )


def fault_detection_any(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    stats: SimulationStats | None = None,
) -> np.ndarray:
    """Per-fault detection verdicts: is fault ``f`` detected by *any* vector?

    Exactly ``fault_detection_matrix(...).any(axis=1)``, but the reduction
    happens chunk by chunk, so exhaustive (:class:`CubeVectors`) and other
    streamed runs never materialise the ``(num_faults, num_vectors)``
    matrix — this is what keeps cube-scale coverage reports in constant
    memory.  Parameters are those of :func:`fault_detection_matrix`.

    Returns
    -------
    numpy.ndarray
        Boolean vector of length ``len(faults)``.
    """
    return _fault_detection_any_impl(
        network, faults, test_vectors, criterion=criterion, stats=stats
    )


def _fault_detection_any_impl(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str | None = None,
    config: ExecutionConfig | None = None,
    prune: bool = True,
    stats: SimulationStats | None = None,
    cache: ResultCache | None = None,
) -> np.ndarray:
    """:func:`fault_detection_any` with its execution configured (Session
    backend); the knobs follow :func:`_fault_detection_matrix_impl`.
    """
    if criterion not in DETECTION_CRITERIA:
        raise FaultModelError(
            f"unknown detection criterion {criterion!r}; "
            f"choose one of {DETECTION_CRITERIA}"
        )
    return _detection_run(
        network,
        faults,
        test_vectors,
        criterion=criterion,
        engine=engine,
        config=config,
        prune=prune,
        stats=stats,
        cache=cache,
        reduce="any",
    )


def _detection_run(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str,
    engine: str | None,
    config: ExecutionConfig | None,
    prune: bool,
    stats: SimulationStats | None,
    reduce: str,
    cache: ResultCache | None = None,
) -> np.ndarray:
    """Shared dispatcher behind the two public entry points."""
    engine, test_vectors = _route_vectors(engine, test_vectors, network.n_lines)
    vectors = _normalise_vectors(network, test_vectors, engine)
    num_vectors = len(vectors)
    if num_vectors == 0:
        if stats is not None:
            stats.planned_grid = (0, 0)
        shape = (len(faults), 0) if reduce == "matrix" else (len(faults),)
        return np.zeros(shape, dtype=bool)
    if stats is not None:
        # Serial single-shot unless a dispatcher below overwrites it with
        # the shard / chunk grid it actually plans.
        stats.planned_grid = (1, 1)
    base_token = (
        _vectors_token(vectors)
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
            cache=cache,
            base_token=base_token,
            reduce=reduce,
        )
    if engine == "bitpacked":
        return _streamed_bitpacked_detection(
            network,
            faults,
            vectors,
            criterion,
            config,
            prune=prune,
            stats=stats,
            cache=cache,
            base_token=base_token,
            reduce=reduce,
        )
    if engine == "scalar":
        matrix = _scalar_detection_matrix(network, faults, vectors, criterion)
    else:
        matrix = _vectorized_detection_matrix(network, faults, vectors, criterion)
    return matrix if reduce == "matrix" else matrix.any(axis=1)


def _route_vectors(
    engine: str | None,
    test_vectors: Sequence[WordLike] | CubeVectors,
    n_lines: int,
):
    """``(engine, vectors)`` of one simulation call.

    :func:`repro.core.evaluation.route_words` for explicit vectors; a
    :class:`CubeVectors` is 0/1 and passes through untouched.
    """
    if isinstance(test_vectors, CubeVectors):
        return route_engine(engine, True), test_vectors
    return route_words(engine, test_vectors, n_lines)


def _vectors_token(vectors) -> tuple:
    """Content token of a normalised vector source (cache key ingredient)."""
    from ..cache.keys import array_token

    if isinstance(vectors, CubeVectors):
        return ("cube", vectors.n)
    return array_token(vectors)


def _normalise_vectors(
    network: ComparatorNetwork,
    test_vectors: Sequence[WordLike] | CubeVectors,
    engine: str,
):
    """Normalise the vector source: a cube marker or a 2-D array (explicit
    words arrive as one array from :func:`_route_vectors`)."""
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
    # An array is used as-is: exhaustive-scale batches must not pay a
    # per-element normalisation loop before the packed engines start.
    if test_vectors.ndim != 2:
        raise FaultModelError(
            "test-vector arrays must be 2-D (num_vectors, n_lines), "
            f"got shape {test_vectors.shape}"
        )
    return test_vectors


def _vectorized_detection_matrix(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    vectors,
    criterion: str,
) -> np.ndarray:
    # Build wide and narrow only after a numpy range check: permutation
    # vectors with values > 127 must never land in int8, where they would
    # silently wrap and corrupt both criteria.
    if isinstance(vectors, np.ndarray):
        batch = np.ascontiguousarray(vectors)
        if batch.shape[1] != network.n_lines:
            raise FaultModelError(
                f"test vectors have {batch.shape[1]} columns but the network "
                f"has {network.n_lines} lines"
            )
    else:
        batch = words_to_array(vectors, dtype=np.int64, n_lines=network.n_lines)
    batch = narrow_binary_batch(batch)
    reference_outputs = None
    if criterion == "reference":
        reference_outputs = apply_network_to_batch(network, batch)
    matrix = np.zeros((len(faults), len(vectors)), dtype=bool)
    for row, fault in enumerate(faults):
        faulty = fault.apply_to(network)
        outputs = apply_network_to_batch(faulty, batch)
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
    # as_word refuses a non-integral value instead of truncating it.
    vectors = [as_word(row) for row in vectors]
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
    arena: PlaneArena,
) -> np.ndarray:
    """Detection row of a fully materialised faulty state.

    The packed temporaries — the adjacent-pair sortedness sweep or the
    per-line XOR/OR difference accumulation — run on pool rows of the
    *arena* through ``out=`` ufuncs, so the only allocation is the
    unpacked boolean row itself (the caller's output).  Padding bits need
    no masking here: ``unpack_bits`` truncates to ``num_words``, which
    drops them by construction.
    """
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
        cls.record_deltas(network, packed_input.planes.copy(), deltas)
        return cls(network, packed_input.planes, deltas, packed_input.num_words)

    @staticmethod
    def record_deltas(
        network: ComparatorNetwork,
        running: np.ndarray,
        deltas: np.ndarray,
        start: int = 0,
    ) -> None:
        """Record comparators ``start..size-1`` of *network* into *deltas*.

        *running* is the packed state before comparator *start* and is
        advanced in place: each comparator's outputs are written straight
        into its delta pair and copied back into the running state, so
        the sweep allocates nothing per stage.  :meth:`build` records a
        whole network from its inputs; the cache's partial-hit path
        (:func:`repro.cache.restore.acquire_prefix_states`) records the
        suffix after a restored common prefix with this same loop, so a
        restored record is bit-identical to a cold one.
        """
        comparators = network.comparators
        for index in range(start, len(comparators)):
            comp = comparators[index]
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
            np.empty(  # repro: noqa RPR001 — a fresh copy without out=
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
    arena: PlaneArena,
) -> PackedBatch:
    """The packed output planes of the faulty device, restarted from the
    shared fault-free prefix state at the fault site.

    The state planes are reconstructed into the *arena*'s ``state``
    buffer and the suffix sweep runs on its comparator scratch — no
    per-stage allocation; the returned batch is a view of the arena and
    only valid until its next use.
    """
    comparators = network.comparators
    out = arena.state
    scratch = arena.tmp

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

    The one-fault form of the pruned kernel, which :func:`_pruned_runs`
    runs from :data:`_STACK_MAX_BLOCKS` blocks per plane on (below that it
    stacks faults, :func:`_sweep_stack`, with the same semantics).

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
    per stage.

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
    only allocation is the unpacked boolean result row itself.

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


# ----------------------------------------------------------------------
# The fault stack: many faults per ufunc call
# ----------------------------------------------------------------------
#: Run codes of :func:`_run_spec`.
_PASS, _SWAP, _REV, _LINE = range(4)


def _run_spec(
    network: ComparatorNetwork, fault: Fault
) -> tuple[int, int, int, int] | None:
    """``(start, code, site, value)`` of one pruned-kernel run.

    *start* is the stage the run enters the sweep at (its errors describe
    the state after *start* comparators), *site* the faulty comparator or
    the stuck line, *value* a stuck line's value.  ``None`` for fault
    models without a prefix-restart structure (the generic fallback).
    Out-of-range faults raise :class:`repro.exceptions.FaultModelError`.
    """
    if isinstance(fault, LineStuckFault):
        n, size = network.n_lines, network.size
        if fault.line < 0 or fault.line >= n:
            raise FaultModelError(
                f"line {fault.line} out of range for {n} lines"
            )
        if fault.stage < 0 or fault.stage > size:
            raise FaultModelError(
                f"stage {fault.stage} out of range for a network of size {size}"
            )
        return (fault.stage, _LINE, fault.line, 1 if fault.value else 0)
    if isinstance(fault, StuckPassFault):
        code = _PASS
    elif isinstance(fault, StuckSwapFault):
        code = _SWAP
    elif isinstance(fault, ReversedComparatorFault):
        code = _REV
    else:
        return None
    index = _checked_index(network, fault.index)
    return (index + 1, code, index, 0)


@allocation_free
def _sweep_stack(
    prefix: PrefixStates,
    specs: Sequence[tuple[int, int, int, int]],
    stack: FaultStack,
    arena: PlaneArena,
) -> None:
    """Carry a stack of runs through the network suffix (difference form).

    *specs* are :func:`_run_spec` tuples sorted by start stage, one per
    row of the *stack* (at most its height).  Every run keeps the
    semantics of :func:`_pruned_fault_errors` — the error planes of its
    dirty lines, a per-run dirty mask and an evaluated-stage count — but
    each comparator issues one set of ufunc calls for all runs with a
    dirty input: their error
    rows are gathered into the stack's temporaries, updated with the
    one-dirty-input formula when only one of the two lines is dirty in the
    stack (``err_and = err_in & ff_other``, ``err_or = err_in ^ err_and``)
    or the general one otherwise, and scattered back.  Runs enter at their
    start stage; a stuck line is re-forced after every comparator writing
    it; a run with no dirty line and no forced line is never touched again
    (the convergence exit).  On return ``stack.errors`` / ``stack.dirty``
    hold the output errors and ``stack.evaluated`` the evaluated stages.
    """
    size = prefix.network.size
    h = len(specs)
    n_blocks = prefix.input_planes.shape[1]
    probe = n_blocks >> 1
    last_writer, writer_pos = prefix.writer_tables()
    comps = prefix.comp_table()
    dviews = prefix.delta_views()
    iviews = prefix.input_views()
    pad_mask = arena.pad_row(prefix.num_words)
    nonzero = np.count_nonzero
    bxor = np.bitwise_xor
    band = np.bitwise_and
    take = np.take
    flatnonzero = np.flatnonzero

    def line_value(stage: int, line: int) -> np.ndarray:
        index = last_writer[stage][line]
        if index < 0:
            return iviews[line]
        return dviews[index][writer_pos[stage][line]]

    dirty_all = stack.dirty[:, :h]
    if not stack.clean:
        stack.errors.fill(0)
        stack.dirty.fill(False)
    stack.clean = False
    errs, dirty = stack.line_views(h)
    ev = stack.evaluated[:h]
    ev.fill(0)
    temps = stack.temps[:, :h]
    t0, t1, t2, t3 = temps
    pair_all = temps[:2]
    nz_all = stack.nonzero[:, :h]
    peak_all = stack.peak[:, :h]
    act = stack.active[:h]
    # (line, value) -> index vector of the entered runs forcing it.
    forced: dict[tuple[int, int], np.ndarray] = {}
    forced_rows: dict[tuple[int, int], list[int]] = {}
    forced_lines: set[int] = set()

    i = specs[0][0] if h else size
    p = 0
    while True:
        while p < h and specs[p][0] == i:
            _start, code, site, value = specs[p]
            if code == _LINE:
                e = errs[site][p]
                bxor(
                    pad_mask if value else arena.zero,
                    line_value(i, site),
                    out=e,
                )
                dirty[site][p] = bool(e[probe] or nonzero(e))
                rows = forced_rows.setdefault((site, value), [])
                rows.append(p)
                forced[(site, value)] = np.array(rows, dtype=np.intp)  # repro: noqa RPR001 — per-entry index vector
                forced_lines.add(site)
            else:
                # The faulty comparator leaves one error plane on both of
                # its lines: the XOR of a comparator's two outputs is that
                # of its inputs, for the fault-free and the faulty device.
                c_lo, c_hi, _rev = comps[site]
                a = line_value(site, c_lo)
                e = errs[c_lo][p]
                if code == _REV:
                    bxor(a, line_value(site, c_hi), out=e)
                    ev[p] = 1
                elif code == _PASS:
                    bxor(a, dviews[site][0], out=e)
                else:
                    bxor(line_value(site, c_hi), dviews[site][0], out=e)
                if e[probe] or nonzero(e):
                    np.copyto(errs[c_hi][p], e)
                    dirty[c_lo][p] = True
                    dirty[c_hi][p] = True
            p += 1
        if i >= size:
            break
        lo, hi, rev = comps[i]
        d_lo_mask = dirty[lo]
        d_hi_mask = dirty[hi]
        idx_lo = flatnonzero(d_lo_mask)  # repro: noqa RPR001 — per-run index vector
        idx_hi = flatnonzero(d_hi_mask)  # repro: noqa RPR001 — per-run index vector
        if idx_lo.size or idx_hi.size:
            e_lo = errs[lo]
            e_hi = errs[hi]
            # Fault-free planes enter as row copies (copyto), never as a
            # broadcast ufunc operand (see FaultStack.temps).
            if not idx_hi.size or not idx_lo.size:
                # One dirty input line in the whole stack:
                # err_and = err_in & ff_other, err_or = err_in ^ err_and.
                if idx_hi.size:
                    idx, dirty_in, src, other = idx_hi, d_hi_mask, e_hi, lo
                else:
                    idx, dirty_in, src, other = idx_lo, d_lo_mask, e_lo, hi
                k = idx.size
                np.add(ev, dirty_in, out=ev)
                g0 = t0[:k]
                g1 = t1[:k]
                take(src, idx, axis=0, out=g0, mode="clip")
                np.copyto(g1, line_value(i, other))
                band(g0, g1, out=g1)
                bxor(g0, g1, out=g0)
            else:
                np.bitwise_or(d_lo_mask, d_hi_mask, out=act)
                idx = flatnonzero(act)  # repro: noqa RPR001 — per-run index vector
                k = idx.size
                np.add(ev, act, out=ev)
                g0 = t0[:k]
                g1 = t1[:k]
                g2 = t2[:k]
                g3 = t3[:k]
                take(e_lo, idx, axis=0, out=g0, mode="clip")  # err_a
                take(e_hi, idx, axis=0, out=g1, mode="clip")  # err_b
                np.copyto(g2, line_value(i, hi))
                bxor(g2, g1, out=g2)  # faulty b
                band(g2, g0, out=g2)  # err_a & faulty b
                bxor(g0, g1, out=g0)  # err_a ^ err_b
                np.copyto(g3, line_value(i, lo))
                band(g3, g1, out=g1)  # ff a & err_b
                bxor(g2, g1, out=g1)  # err of the AND output
                bxor(g0, g1, out=g0)  # err of the OR output
            # t0 holds the OR output's errors, t1 the AND output's.
            pair = pair_all[:, :k]
            nz = nz_all[:, :k]
            np.not_equal(pair[:, :, probe], 0, out=nz)
            if not nz.all():
                peak = peak_all[:, :k]
                np.maximum.reduce(pair, axis=2, out=peak)
                np.not_equal(peak, 0, out=nz)
            lo_t, hi_t = (0, 1) if rev else (1, 0)
            e_lo[idx] = pair[lo_t]
            e_hi[idx] = pair[hi_t]
            d_lo_mask[idx] = nz[lo_t]
            d_hi_mask[idx] = nz[hi_t]
        elif p == h and not forced_lines and not dirty_all.any():
            break  # every run entered and converged
        if lo in forced_lines or hi in forced_lines:
            for line, pos in ((lo, 0), (hi, 1)):
                if line not in forced_lines:
                    continue
                d = dviews[i][pos]
                for value in (0, 1):
                    runs = forced.get((line, value))
                    if runs is None:
                        continue
                    if value:
                        plane = arena.tmp
                        bxor(pad_mask, d, out=plane)
                    else:
                        plane = d
                    errs[line][runs] = plane
                    dirty[line][runs] = bool(plane[probe] or nonzero(plane))
        i += 1


@allocation_free
def _stack_verdicts(
    reference: PackedBatch,
    stack: FaultStack,
    h: int,
    criterion: str,
    ref_pair_any: Sequence[bool],
    pad_mask: np.ndarray,
) -> np.ndarray:
    """Per-run any-verdicts of a swept stack (boolean vector of *h*).

    ``"reference"``: a run detects when any output line is dirty.
    ``"specification"``: only the adjacent-line pairs touching a dirty
    line can change their violation mask, so a ref-violating pair clear of
    a run's dirty lines decides it, and the others recompute just the
    touched pairs, stacked over the runs still undecided.
    """
    dirty = stack.dirty[:, :h]
    if criterion == "reference":
        return dirty.any(axis=0)
    planes = reference.planes
    n = planes.shape[0]
    verdict = np.zeros(h, dtype=bool)  # repro: noqa RPR001 — one flag per run
    touched = [dirty[j] | dirty[j + 1] for j in range(n - 1)]
    for j, ref_violates in enumerate(ref_pair_any):
        if ref_violates:
            verdict |= ~touched[j]
    errors = stack.errors
    t0, t1, t2 = stack.temps[0], stack.temps[1], stack.temps[2]
    peak = stack.peak[0]
    tail = pad_mask[-1]
    for j in range(n - 1):
        idx = np.flatnonzero(touched[j] & ~verdict)  # repro: noqa RPR001 — per-run index vector
        k = idx.size
        if not k:
            continue
        g0 = t0[:k]
        g1 = t1[:k]
        g2 = t2[:k]
        np.take(errors[j, :h], idx, axis=0, out=g0, mode="clip")
        np.take(errors[j + 1, :h], idx, axis=0, out=g1, mode="clip")
        np.copyto(g2, planes[j])
        np.bitwise_xor(g0, g2, out=g0)  # faulty line j
        np.copyto(g2, planes[j + 1])
        np.bitwise_xor(g1, g2, out=g1)  # faulty line j + 1
        np.invert(g1, out=g1)
        np.bitwise_and(g0, g1, out=g0)
        np.bitwise_and(g0[:, -1], tail, out=g0[:, -1])
        np.maximum.reduce(g0, axis=1, out=peak[:k])
        verdict[idx] |= peak[:k] != 0
    return verdict


@allocation_free
def _stack_rows(
    reference: PackedBatch,
    stack: FaultStack,
    h: int,
    criterion: str,
) -> np.ndarray:
    """Detection rows of a swept stack, ``(h, num_words)`` booleans.

    One packed mask per run: the OR of its error planes (``"reference"``)
    or of its adjacent-pair violations (``"specification"``), computed
    for the whole stack at once and unpacked.  A clean line's error plane
    is zero, so a converged run gets the reference's own row.
    """
    errors = stack.errors[:, :h]
    acc, ff, prev, cur = stack.temps[:, :h]
    planes = reference.planes
    n = planes.shape[0]
    if criterion == "reference":
        np.bitwise_or.reduce(errors, axis=0, out=acc)
    else:
        # Unpacking truncates to num_words, so padding bits need no mask.
        acc.fill(0)
        np.copyto(ff, planes[0])
        np.bitwise_xor(errors[0], ff, out=prev)  # faulty line 0
        for j in range(1, n):
            np.copyto(ff, planes[j])
            np.bitwise_xor(errors[j], ff, out=cur)  # faulty line j
            np.invert(cur, out=ff)
            np.bitwise_and(ff, prev, out=ff)
            np.bitwise_or(acc, ff, out=acc)
            prev, cur = cur, prev
    bits = np.unpackbits(acc.view(np.uint8), axis=1, bitorder="little")  # repro: noqa RPR001 — the result rows
    return bits[:, : reference.num_words].view(bool)


#: Plane length (blocks) from which the pruned kernel runs one fault at a
#: time instead of stacking them (:func:`_pruned_runs`).  Stacking saves
#: numpy calls, and gathering rows costs memory traffic that the
#: one-fault loop's slot swaps avoid; on a 2-vCPU VM the two broke even
#: at 384–512 blocks (Batcher(16) mutant, extended universe) and the
#: one-fault loop led from 768 on (up to 1.4× at 1,024); the table is in
#: docs/ARCHITECTURE.md.
_STACK_MAX_BLOCKS = 512


def _pruned_runs(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    prefix: PrefixStates,
    criterion: str,
    stats: SimulationStats,
    pool: PlaneArena,
    *,
    rows_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run every fault of *faults* through the pruned kernel once.

    Returns ``(verdicts, evaluated, converged)`` per fault — the
    any-verdict, the evaluated stage-blocks and whether the run converged
    — and adds each run's counters to *stats*.  With *rows_out* (shape
    ``(len(faults), num_words)``) the detection rows are written there
    instead and *verdicts* stays all-false.  Faults of unknown models take
    the generic full-state fallback; the others are stacked
    (:func:`_sweep_stack`) below :data:`_STACK_MAX_BLOCKS` blocks per
    plane and run one by one (:func:`_pruned_fault_errors`) from there on.
    Every fault is range-checked before anything runs.
    """
    size = network.size
    n_blocks = prefix.input_planes.shape[1]
    count = len(faults)
    verdicts = np.zeros(count, dtype=bool)
    evaluated = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    specs = [_run_spec(network, fault) for fault in faults]
    reference = prefix.reference()
    pad_mask = reference.pad_mask()
    ref_pair_any: list[bool] = []
    if rows_out is None and criterion == "specification":
        planes = reference.planes
        ref_pair_any = [
            bool((planes[j] & ~planes[j + 1] & pad_mask).any())
            for j in range(reference.n_lines - 1)
        ]
    kernel_rows = []
    for row, spec in enumerate(specs):
        if spec is not None:
            kernel_rows.append(row)
            continue
        # Unknown fault model: no prefix-restart structure to exploit.
        stats.evaluated_stage_blocks += size * n_blocks
        stats.faults += 1
        evaluated[row] = size * n_blocks
        state = _fault_state(network, faults[row], prefix, arena=pool)
        detection = _detection_row(state, reference, criterion, arena=pool)
        if rows_out is None:
            verdicts[row] = bool(detection.any())
        else:
            rows_out[row] = detection
    if not kernel_rows:
        return verdicts, evaluated, converged
    if n_blocks >= _STACK_MAX_BLOCKS:
        ref_detect = any(ref_pair_any)
        converged_row = (
            _detection_row(reference, reference, criterion, arena=pool)
            if rows_out is not None
            else None
        )
        for row in kernel_rows:
            evaluated_before = stats.evaluated_stage_blocks
            converged_before = stats.converged_faults
            result = _pruned_fault_errors(network, faults[row], prefix, stats, pool)
            evaluated[row] = stats.evaluated_stage_blocks - evaluated_before
            converged[row] = stats.converged_faults != converged_before
            if rows_out is not None:
                rows_out[row] = (
                    converged_row
                    if result is None
                    else _row_from_errors(reference, result, criterion, pad_mask, pool)
                )
            elif result is None:
                verdicts[row] = ref_detect
            else:
                verdicts[row] = _errors_detect(
                    reference, result, criterion, pad_mask, ref_pair_any, arena=pool
                )
        return verdicts, evaluated, converged
    stack = pool.fault_stack(len(kernel_rows))
    order = sorted(kernel_rows, key=lambda row: specs[row][0])
    baseline = 0
    for row in kernel_rows:
        start, code = specs[row][0], specs[row][1]
        baseline += size - start + (code == _REV)
    for first in range(0, len(order), stack.height):
        rows = order[first : first + stack.height]
        h = len(rows)
        _sweep_stack(prefix, [specs[row] for row in rows], stack, pool)
        evaluated[rows] = stack.evaluated[:h] * n_blocks
        converged[rows] = ~stack.dirty[:, :h].any(axis=0)
        if rows_out is None:
            verdicts[rows] = _stack_verdicts(
                reference, stack, h, criterion, ref_pair_any, pad_mask
            )
        else:
            rows_out[rows] = _stack_rows(reference, stack, h, criterion)
        stack.clear(h)
    ran = int(evaluated[kernel_rows].sum())
    stats.faults += len(kernel_rows)
    stats.converged_faults += int(converged[kernel_rows].sum())
    stats.evaluated_stage_blocks += ran
    stats.pruned_stage_blocks += baseline * n_blocks - ran
    return verdicts, evaluated, converged


def _fault_rows(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    prefix: PrefixStates,
    criterion: str,
    out: np.ndarray,
    *,
    prune: bool = False,
    stats: SimulationStats | None = None,
) -> np.ndarray:
    """Fill ``out[row]`` with the detection row of ``faults[row]``.

    ``out`` may be a slice of a shared-memory matrix — this is the unit of
    work a sharded worker executes on its (fault-slice × vector-chunk)
    tile.  With ``prune=True`` the dominated-state pruner runs
    (:func:`_pruned_runs`) and faults whose state converged inherit the
    fault-free detection row.  This thread's shared arena for the chunk
    geometry serves every fault of the call.
    """
    planes = prefix.input_planes
    pool = shared_arena(network.n_lines, planes.shape[1], planes.dtype)
    if not prune:
        reference = prefix.reference()
        for row, fault in enumerate(faults):
            state = _fault_state(network, fault, prefix, arena=pool)
            out[row] = _detection_row(state, reference, criterion, arena=pool)
        return out
    _pruned_runs(
        network, faults, prefix, criterion,
        stats if stats is not None else SimulationStats(), pool, rows_out=out,
    )
    return out


@allocation_free
def _errors_detect(
    reference: PackedBatch,
    err: dict[int, np.ndarray],
    criterion: str,
    pad_mask: np.ndarray,
    ref_pair_any: Sequence[bool],
    arena: PlaneArena,
) -> bool:
    """Does a fault with output error planes *err* detect on any word?

    The ``"reference"`` criterion is immediate: a non-empty error dict means
    some output line differs somewhere.  For ``"specification"`` only the
    adjacent-line pairs touching a diverged line can change their violation
    mask, so the sweep recomputes just those pairs (early-exiting on the
    first violation) and reads the untouched pairs' verdicts from the
    per-chunk precomputed *ref_pair_any*.  The pair sweep runs on pool
    rows of the *arena* via ``out=`` ufuncs (no allocation).
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
) -> np.ndarray:
    """OR one vector chunk's detection verdicts into ``detected``.

    The any-reduction unit of work: with ``prune=True`` the dominated-state
    pruner runs (:func:`_pruned_runs`), verdicts are taken straight from
    the packed violation masks (no boolean row is ever expanded), and
    faults already detected by an earlier chunk are *dropped* — skipped
    entirely, since another detection cannot change the OR.  Line stuck-at
    *twins* (same line, value and last writer, :func:`_line_stuck_class`)
    are simulated once per call: the first member still to be decided
    runs the kernel, the others take its verdict and replay the counters
    their own run would have added, so :class:`SimulationStats` does not
    depend on the sharing.  ``prune=False`` reproduces the plain
    row-building loop.  Either way ``detected`` ends up identical.  The
    arena follows :func:`_fault_rows`.
    """
    if not prune:
        rows = np.zeros((len(faults), prefix.num_words), dtype=bool)
        _fault_rows(network, faults, prefix, criterion, rows)
        detected |= rows.any(axis=1)
        return detected
    if stats is None:
        stats = SimulationStats()
    planes = prefix.input_planes
    n_blocks = planes.shape[1]
    pool = shared_arena(network.n_lines, n_blocks, planes.dtype)
    size = network.size
    last_writer = prefix.writer_tables()[0]
    # class key -> position in `runs` of the member that runs the kernel.
    classes: dict[tuple[int, int, int], int] = {}
    runs: list[int] = []
    twin_rows: list[int] = []
    twin_runs: list[int] = []
    twin_tail = 0  # the twins' unpruned stages, sum of size - stage
    undecided = np.flatnonzero(~detected).tolist()
    stats.dropped_faults += len(faults) - len(undecided)
    for row in undecided:
        fault = faults[row]
        key = _line_stuck_class(fault, last_writer)
        if key is not None:
            known = classes.get(key)
            if known is not None:
                twin_rows.append(row)
                twin_runs.append(known)
                twin_tail += size - fault.stage
                continue
            classes[key] = len(runs)
        runs.append(row)
    verdicts, evaluated, converged = _pruned_runs(
        network, [faults[row] for row in runs], prefix, criterion, stats, pool
    )
    detected[runs] = verdicts
    if twin_rows:
        detected[twin_rows] = verdicts[twin_runs]
        twin_evaluated = int(evaluated[twin_runs].sum())
        stats.faults += len(twin_rows)
        stats.converged_faults += int(converged[twin_runs].sum())
        stats.evaluated_stage_blocks += twin_evaluated
        stats.pruned_stage_blocks += twin_tail * n_blocks - twin_evaluated
    return detected


def _line_stuck_class(
    fault: Fault, last_writer: list[list[int]]
) -> tuple[int, int, int] | None:
    """The twin-class key of a line stuck-at fault, or ``None``.

    A fault at stage ``s`` forces its line from the state after ``s``
    comparators onward, and a comparator that does not touch the line
    neither reads nor writes it — so two stages with the same last writer
    of the line (``last_writer[s][line]``, ``-1`` before the first) give
    the same faulty state from the later stage on, hence the same verdict
    under both criteria and the same evaluated stage-blocks in the pruned
    kernel.  Other fault models, and stuck lines whose line or stage is
    out of range (which must still reach the kernel and raise), get no key.
    """
    if not isinstance(fault, LineStuckFault):
        return None
    line, stage = fault.line, fault.stage
    if not (0 <= stage < len(last_writer) and 0 <= line < len(last_writer[stage])):
        return None
    return (line, fault.value, last_writer[stage][line])


# ----------------------------------------------------------------------
# Streamed vector axis (serial; the sharded grid lives in repro.parallel)
# ----------------------------------------------------------------------
def _vector_chunks(
    vectors, chunk_words: int | None
) -> list[tuple[int, int, int]]:
    """``(word_start, lo, hi)`` per chunk of a streamed vector axis.

    ``[lo, hi)`` is a block span of the cube for :class:`CubeVectors` and
    a row span of an explicit batch otherwise — everything needed to
    (re)generate the packed chunk (:func:`_pack_chunk`).  *chunk_words*
    gives fixed chunks of that many words; ``None`` gives the
    any-reduction's early-exit schedule
    (:func:`repro.core.bitpacked.early_exit_spans`: the first sixteenth
    of the blocks, at least 64, then the rest, every chunk capped at
    :data:`repro.parallel.config.DEFAULT_CHUNK_WORDS`).
    """
    from ..parallel.chunking import chunk_spans, cube_block_spans
    from ..parallel.config import DEFAULT_CHUNK_WORDS

    cube = isinstance(vectors, CubeVectors)
    total = len(vectors)
    if chunk_words is not None:
        if cube:
            return [
                (lo * BLOCK_BITS, lo, hi)
                for lo, hi in cube_block_spans(vectors.n, chunk_words)
            ]
        return [(lo, lo, hi) for lo, hi in chunk_spans(total, chunk_words)]
    spans = early_exit_spans(
        -(-total // BLOCK_BITS), DEFAULT_CHUNK_WORDS // BLOCK_BITS
    )
    if cube:
        return [(lo * BLOCK_BITS, lo, hi) for lo, hi in spans]
    return [
        (lo * BLOCK_BITS, lo * BLOCK_BITS, min(hi * BLOCK_BITS, total))
        for lo, hi in spans
    ]


def _pack_chunk(
    network: ComparatorNetwork, vectors, chunk: tuple[int, int, int]
) -> PackedBatch:
    """The packed vectors of one :func:`_vector_chunks` entry: a cube
    block range, generated in packed form, or a row range of an explicit
    batch."""
    _word_start, lo, hi = chunk
    if isinstance(vectors, CubeVectors):
        return packed_cube_range(vectors.n, lo, hi)
    return _pack_vectors(network, vectors[lo:hi])


def _streamed_bitpacked_detection(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    vectors,
    criterion: str,
    config: ExecutionConfig | None,
    *,
    prune: bool,
    stats: SimulationStats | None,
    cache: ResultCache | None = None,
    base_token: tuple | None = None,
    reduce: str,
) -> np.ndarray:
    """The serial bit-packed chunk loop: one packed chunk (and its prefix
    states) resident at a time, matrix columns or the any-reduction filled
    per chunk.  Matrix chunks are written straight into their columns of
    the result; a single-shot matrix is one chunk that spans the vectors.
    In any-reduction mode verdicts come straight from the packed
    violation masks and (with *prune*) faults detected by an earlier chunk
    are dropped from later ones.  With a *cache*, prefix states are
    acquired through the incremental front end and whole chunk verdicts
    (plus their pruning-counter deltas) are replayed on a hit —
    bit-identical either way, including the accumulated
    :class:`SimulationStats`."""
    from ..cache.restore import acquire_prefix_states
    from ..parallel.config import DEFAULT_CHUNK_WORDS

    num_faults = len(faults)
    caching = cache is not None and base_token is not None
    net_token: tuple = ()
    faults_token: tuple = ()
    if caching:
        from ..cache.keys import faults_token as universe_token
        from ..cache.keys import network_token

        net_token = network_token(network)
        faults_token = universe_token(faults)
    # The caller's chunk size; else the early-exit schedule for the
    # any-reduction, the streaming default for a cube matrix (or under a
    # streaming config), and one chunk spanning an explicit matrix.
    if config is not None and config.chunk_size is not None:
        chunk_words: int | None = config.chunk_size
    elif reduce == "any":
        chunk_words = None
    elif isinstance(vectors, CubeVectors) or (
        config is not None and config.streaming
    ):
        chunk_words = DEFAULT_CHUNK_WORDS
    else:
        chunk_words = len(vectors)
    chunks = _vector_chunks(vectors, chunk_words)
    if stats is not None:
        stats.planned_grid = (1, len(chunks))
    if reduce == "any":
        detected = np.zeros(num_faults, dtype=bool)
        for chunk in chunks:
            if prune and detected.all():
                # Every fault is decided: the chunk would drop them all.
                if stats is not None:
                    stats.dropped_faults += num_faults
                continue
            word_start = chunk[0]
            packed = _pack_chunk(network, vectors, chunk)
            if not caching:
                prefix = acquire_prefix_states(network, packed)
                _fault_any(
                    network, faults, prefix, criterion, detected,
                    prune=prune, stats=stats,
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
                network, packed, cache=cache, token=token
            )
            _fault_any(
                network, faults, prefix, criterion, detected,
                prune=prune, stats=local,
            )
            cache.put_verdict(verdict_key, (detected.copy(), local.counts()))
            if stats is not None:
                stats.merge_counts(local.counts())
        return detected
    out = np.zeros((num_faults, len(vectors)), dtype=bool)
    for chunk in chunks:
        word_start = chunk[0]
        packed = _pack_chunk(network, vectors, chunk)
        columns = out[:, word_start : word_start + packed.num_words]
        if not caching:
            prefix = acquire_prefix_states(network, packed)
            _fault_rows(
                network, faults, prefix, criterion, columns,
                prune=prune, stats=stats,
            )
            continue
        token = (*base_token, word_start, packed.num_words)
        verdict_key = (
            "fault-rows", net_token, token, criterion, bool(prune),
            faults_token,
        )
        hit = cache.get_verdict(verdict_key)
        if hit is not None:
            columns[...] = hit[0]
            if stats is not None:
                stats.merge_counts(hit[1])
            continue
        local = SimulationStats()
        prefix = acquire_prefix_states(network, packed, cache=cache, token=token)
        _fault_rows(
            network, faults, prefix, criterion, columns,
            prune=prune, stats=local,
        )
        cache.put_verdict(verdict_key, (columns.copy(), local.counts()))
        if stats is not None:
            stats.merge_counts(local.counts())
    return out


def _pack_vectors(network: ComparatorNetwork, vectors: np.ndarray) -> PackedBatch:
    """Pack a normalised 2-D batch of test vectors."""
    from ..core.bitpacked import pack_batch

    return pack_batch(vectors, n_lines=network.n_lines)


def _checked_index(network: ComparatorNetwork, index: int) -> int:
    _check_index(network, index)
    return index


def _stuck_line_state(
    network: ComparatorNetwork,
    fault: LineStuckFault,
    prefix: PrefixStates,
    arena: PlaneArena,
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
    scratch = arena.tmp
    state = prefix.state_after(start, out=arena.state)
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
) -> list[Fault]:
    """The faults detected by at least one of the given test vectors.

    Parameters are those of :func:`fault_detection_matrix`; the reduction
    runs through :func:`fault_detection_any`, so exhaustive
    (:class:`CubeVectors`) sources stay in constant memory.
    """
    detected_rows = _fault_detection_any_impl(
        network, faults, test_vectors, criterion=criterion
    )
    return [fault for fault, hit in zip(faults, detected_rows) if hit]


def undetected_faults(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
) -> list[Fault]:
    """The faults that escape the given test vectors entirely.

    Note that some faults are genuinely *undetectable* under the
    ``"specification"`` criterion: a fault whose network still sorts every
    input (e.g. a stuck-pass fault on a redundant comparator) produces a
    chip that, while physically defective, still meets its specification.
    """
    detected_rows = _fault_detection_any_impl(
        network, faults, test_vectors, criterion=criterion
    )
    return [fault for fault, hit in zip(faults, detected_rows) if not hit]
