"""Vectorised network evaluation and the engine-routing rule.

The experiments repeatedly evaluate a network on *every* word of
``{0,1}^n`` (or on large permutation batches).  Three interchangeable
engines (:data:`EVALUATION_ENGINES`) are provided:

``"scalar"``
    Per-word Python loop over :meth:`ComparatorNetwork.apply`.  Slow, but
    trivially correct — it is the oracle the other engines are
    cross-checked against.
``"vectorized"``
    The batch is a 2-D numpy array of shape ``(num_words, n_lines)`` and
    each comparator is a pair of vectorised ``minimum``/``maximum``
    operations over two columns.  Works for arbitrary integer values: the
    production kernel of permutation work.
``"bitpacked"``
    0/1 batches only: words are packed 64-per-machine-word as bit planes
    (one uint64 row per network line, see :mod:`repro.core.bitpacked`) and
    each comparator becomes one AND/OR pair, giving ~64× the throughput of
    the vectorised engine on exhaustive binary workloads: the production
    kernel of 0/1 work.  Non-binary data raises
    :class:`~repro.exceptions.NotBinaryError`.

The value domain picks the kernel: a workload call (a
:class:`repro.api.Session` method or a workload free function) with no
``engine`` pin runs 0/1 work bit-packed and everything else vectorised —
:func:`route_engine` is that rule.  An explicit engine name is a pin for
oracles, tests and engine comparisons; nothing is ever swapped behind
it.  The evaluation primitives below (:func:`apply_network_to_batch`,
:func:`outputs_on_words`) return unpacked outputs and keep
``engine="vectorized"``; :func:`evaluate_on_all_binary_inputs` evaluates
the 0/1 cube, so it runs bit-packed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .._registry import EVALUATION_ENGINES
from .._typing import Batch, WordLike, as_word
from ..exceptions import EngineError, InputLengthError
from .bitpacked import nonbinary_reason
from .network import ComparatorNetwork

__all__ = [
    "EVALUATION_ENGINES",
    "BINARY_STRATEGIES",
    "check_engine",
    "route_engine",
    "route_words",
    "apply_network_to_batch",
    "all_binary_words",
    "all_binary_words_array",
    "unsorted_binary_words_array",
    "evaluate_on_all_binary_inputs",
    "outputs_on_words",
    "batch_is_sorted",
    "words_to_array",
    "array_to_words",
    "min_word_dtype",
    "narrow_binary_batch",
]

#: The verification strategies (of the sorter / selector / merger
#: checkers) that evaluate 0/1 words; ``"permutation"`` and
#: ``"permutation-testset"`` evaluate permutations.
BINARY_STRATEGIES = ("binary", "testset")


def check_engine(engine: str) -> str:
    """Validate an engine name, returning it (raises :class:`EngineError`)."""
    if engine not in EVALUATION_ENGINES:
        raise EngineError(
            f"unknown evaluation engine {engine!r}; "
            f"choose one of {EVALUATION_ENGINES}"
        )
    return engine


def route_engine(engine: str | None, domain: str | bool | np.ndarray) -> str:
    """The engine one workload call runs: its pin, or its domain's kernel.

    Without a pin (``engine=None``) 0/1 work runs ``"bitpacked"`` and
    everything else ``"vectorized"``.  *domain* is what the call
    evaluates: a verification strategy name (:data:`BINARY_STRATEGIES`
    are 0/1), ``True`` for the 0/1 cube, or the batch itself.  A batch is
    only looked at without a pin, with the packer's own test
    (:func:`repro.core.bitpacked.nonbinary_reason`): fractional floats
    are not 0/1, an empty batch is.

    A pin is returned as given, except that a bit-packed pin on any
    strategy but the 0/1 ones raises :class:`EngineError` before any work.
    A bit-packed pin on a non-binary batch is refused by the packer itself
    (:class:`~repro.exceptions.NotBinaryError`, an :class:`EngineError`),
    so a pinned call makes no extra pass over its input.
    """
    if isinstance(domain, str):
        if engine == "bitpacked" and domain not in BINARY_STRATEGIES:
            raise EngineError(
                f"the bit-packed engine takes 0/1 input only; strategy "
                f"{domain!r} is not one of {BINARY_STRATEGIES}"
            )
        domain = domain in BINARY_STRATEGIES
    if engine is not None:
        return check_engine(engine)
    if not isinstance(domain, bool):
        domain = nonbinary_reason(np.asarray(domain)) is None
    return "bitpacked" if domain else "vectorized"


def route_words(
    engine: str | None, words: Iterable[WordLike], n_lines: int
) -> tuple[str, Iterable[WordLike]]:
    """``(engine, words)`` of one workload call on explicit words.

    Anything but an array becomes one array (:func:`_explicit_word_array`),
    pinned or not, so a list of fractional words is applied as given, as
    the same words passed as an array are; the call then evaluates that
    array, so the words are converted once.  Without a pin
    :func:`route_engine` tests the batch; a pin is returned as given.
    """
    batch = (
        words
        if isinstance(words, np.ndarray)
        else _explicit_word_array(words, n_lines=n_lines)
    )
    return route_engine(engine, batch), batch


def min_word_dtype(words: Iterable[Sequence[int]]):
    """Smallest safe dtype for a batch of words: ``int8`` for 0/1-looking
    data, ``int64`` otherwise.

    This is the dtype-selection rule shared by :func:`outputs_on_words` and
    the fault simulator — permutation vectors with values above 127 must not
    be narrowed to ``int8``, where they would silently wrap and corrupt
    every downstream comparison.
    """
    lowest, highest = 0, 0
    for row in words:
        for value in row:
            value = int(value)
            if value < lowest:
                lowest = value
            if value > highest:
                highest = value
    return np.int8 if lowest >= -128 and highest <= 1 else np.int64


def _explicit_word_dtype(words: object) -> np.dtype:
    """The dtype a call builds its explicit-word batch in.

    ``int64``, unless *words* is a float array holding a fractional value:
    that one keeps its dtype, since truncating it would apply other words
    than the given ones.  Integer, 0/1 and word-list input always get
    ``int64``.
    """
    if (
        isinstance(words, np.ndarray)
        and words.dtype.kind == "f"
        and bool(np.any(words % 1))
    ):
        return words.dtype
    return np.dtype(np.int64)


def _explicit_word_array(
    words: Iterable[WordLike], *, n_lines: int | None = None
) -> Batch:
    """Explicit words as the one array a call evaluates.

    An array follows :func:`_explicit_word_dtype` (a fresh copy).  Any
    other iterable is converted once with numpy's own type inference and
    then follows the same rule, so a list of fractional float words keeps
    its values, exactly like the same words passed as an array, while
    integer and 0/1 lists become ``int64``.
    """
    if isinstance(words, np.ndarray):
        return words_to_array(
            words, dtype=_explicit_word_dtype(words), n_lines=n_lines
        )
    batch = words_to_array(words, dtype=None, n_lines=n_lines)
    return batch.astype(_explicit_word_dtype(batch), copy=False)


def narrow_binary_batch(batch: np.ndarray) -> np.ndarray:
    """Narrow a 0/1 integer batch to ``int8``; anything else is returned as is.

    ``int8`` is the cheap dtype every engine accepts, and the test is two
    numpy reductions instead of a per-element Python scan.  Shared by the
    fault simulator, the test-set validator and the chunked executor.
    Float batches keep their dtype.
    """
    if (
        batch.size
        and batch.dtype.kind in "biu"
        and batch.dtype != np.int8
        and 0 <= batch.min()
        and batch.max() <= 1
    ):
        batch = batch.astype(np.int8)
    return batch


def words_to_array(
    words: Iterable[Sequence[int]], dtype=np.int8, *, n_lines: int | None = None
) -> Batch:
    """Stack an iterable of equal-length words into a 2-D integer array.

    Parameters
    ----------
    words:
        Iterable of equal-length integer sequences.
    dtype:
        Element dtype of the result (see :func:`min_word_dtype` for picking
        one that cannot overflow).
    n_lines:
        Optional word length hint.  An *empty* iterable carries no length
        information of its own and would otherwise collapse to shape
        ``(0, 0)``; with the hint the result is ``(0, n_lines)`` so empty
        batches flow through :func:`apply_network_to_batch` cleanly.  For
        non-empty input the hint is validated against the actual width.
    """
    if isinstance(words, np.ndarray):  # a fresh array, as from a list
        array = np.array(words, dtype=dtype)
        if not len(array):
            array = array.reshape(0)
    else:
        array = np.asarray(list(words), dtype=dtype)
    if array.ndim == 1:
        # A single word (or an empty iterable) — normalise the shape.
        if array.size:
            array = array.reshape((1, -1))
        else:
            array = array.reshape((0, n_lines if n_lines is not None else 0))
    if n_lines is not None and array.shape[1] != n_lines:
        raise InputLengthError(
            f"words have length {array.shape[1]}, expected {n_lines}"
        )
    return array


def array_to_words(batch: Batch):
    """Convert a 2-D batch array back to a list of plain tuples."""
    return [tuple(int(v) for v in row) for row in np.asarray(batch)]


def _apply_scalar(network: ComparatorNetwork, data: np.ndarray) -> np.ndarray:
    out = np.empty_like(data)
    for index in range(data.shape[0]):
        # as_word refuses a non-integral value instead of truncating it.
        out[index] = network.apply(as_word(data[index]))
    return out


def _apply_bitpacked(network: ComparatorNetwork, data: np.ndarray) -> np.ndarray:
    from .bitpacked import apply_network_packed, pack_batch, unpack_batch

    packed = pack_batch(data, n_lines=network.n_lines)
    outputs = apply_network_packed(network, packed, copy=False)
    return unpack_batch(outputs, dtype=data.dtype)


def apply_network_to_batch(
    network: ComparatorNetwork,
    batch: Batch,
    *,
    copy: bool = True,
    engine: str = "vectorized",
) -> Batch:
    """Evaluate *network* on every row of *batch*.

    Parameters
    ----------
    network:
        The comparator network to evaluate.
    batch:
        Integer array of shape ``(num_words, n_lines)``.
    copy:
        When ``True`` (default) the input array is left untouched and a new
        array is returned.  Pass ``False`` to evaluate in place when the
        caller owns the buffer (e.g. inside the fault-simulation loop); only
        the vectorised engine can actually reuse the buffer, the others
        always allocate.
    engine:
        One of :data:`EVALUATION_ENGINES`.  ``"bitpacked"`` requires a 0/1
        batch and raises :class:`~repro.exceptions.NotBinaryError`
        otherwise.

    Returns
    -------
    numpy.ndarray
        The outputs, same shape and dtype as *batch*.
    """
    check_engine(engine)
    data = np.asarray(batch)
    if data.ndim != 2:
        raise InputLengthError(
            f"batch must be 2-D (num_words, n_lines), got shape {data.shape}"
        )
    if data.shape[1] != network.n_lines:
        raise InputLengthError(
            f"batch has {data.shape[1]} columns but the network has "
            f"{network.n_lines} lines"
        )
    if engine == "scalar":
        return _apply_scalar(network, data)
    if engine == "bitpacked":
        return _apply_bitpacked(network, data)
    # Faulty-network subclasses (repro.faults.models) override apply_batch to
    # model behaviour that a plain comparator sequence cannot express (e.g. a
    # stuck-swap stage).  Dispatch to the override so every caller — property
    # checkers, fault simulation, benchmarks — sees the faulty behaviour.
    override = type(network).apply_batch
    if override is not ComparatorNetwork.apply_batch:
        return override(network, data)
    out = np.array(data, copy=True) if copy else data
    if out.shape[0] == 0:
        return out
    for comp in network.comparators:
        a = out[:, comp.low]
        b = out[:, comp.high]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        if comp.reversed:
            lo, hi = hi, lo
        out[:, comp.low] = lo
        out[:, comp.high] = hi
    return out


def all_binary_words(n: int):
    """Yield every word of ``{0,1}^n`` as a tuple, in lexicographic order."""
    for rank in range(1 << n):
        yield tuple((rank >> (n - 1 - i)) & 1 for i in range(n))


def all_binary_words_array(n: int, dtype=np.int8) -> Batch:
    """All ``2**n`` binary words as a ``(2**n, n)`` array (lexicographic rows).

    Row ``r`` is the binary expansion of ``r`` with the most significant bit
    in column 0, so ``all_binary_words_array(n)[r]`` equals the ``r``-th word
    of :func:`all_binary_words`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return np.zeros((1, 0), dtype=dtype)
    ranks = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((ranks[:, None] >> shifts[None, :]) & 1).astype(dtype)


def unsorted_binary_words_array(n: int, dtype=np.int8) -> Batch:
    """All non-sorted binary words of length *n* (``2**n - n - 1`` rows)."""
    words = all_binary_words_array(n, dtype=dtype)
    keep = ~batch_is_sorted(words)
    return words[keep]


def batch_is_sorted(batch: Batch) -> np.ndarray:
    """Boolean vector: for each row, is it non-decreasing left to right?"""
    data = np.asarray(batch)
    if data.shape[1] <= 1:
        return np.ones(data.shape[0], dtype=bool)
    return np.all(data[:, 1:] >= data[:, :-1], axis=1)


def evaluate_on_all_binary_inputs(
    network: ComparatorNetwork, *, dtype=np.int8
) -> Batch:
    """Outputs of *network* on every binary word, ordered by input rank.

    The cube is 0/1, so it runs bit-packed: the input cube is generated
    directly in packed form (never materialising the ``(2**n, n)`` input
    array) and only the outputs are expanded.
    """
    from .bitpacked import (
        apply_network_packed,
        packed_all_binary_words,
        unpack_batch,
    )

    packed = packed_all_binary_words(network.n_lines)
    outputs = apply_network_packed(network, packed, copy=False)
    return unpack_batch(outputs, dtype=dtype)


def outputs_on_words(
    network: ComparatorNetwork,
    words: Iterable[Sequence[int]],
    *,
    dtype: type | None = None,
    engine: str = "vectorized",
) -> Batch:
    """Evaluate *network* on an explicit collection of words.

    The dtype defaults to ``int8`` for binary-looking input and ``int64``
    otherwise (see :func:`min_word_dtype`; permutations of large ``n``
    overflow ``int8``).  ``engine="bitpacked"`` is only valid when the words
    are all 0/1.
    """
    check_engine(engine)
    rows = list(words)
    if not rows:
        return np.zeros((0, network.n_lines), dtype=np.int8)
    if dtype is None:
        # Build wide once and narrow with numpy reductions — scanning the
        # rows element by element in Python would dominate permutation-scale
        # workloads before evaluation even starts.
        batch = words_to_array(rows, dtype=np.int64, n_lines=network.n_lines)
        batch = narrow_binary_batch(batch)
    else:
        batch = words_to_array(rows, dtype=dtype, n_lines=network.n_lines)
    return apply_network_to_batch(network, batch, copy=False, engine=engine)
