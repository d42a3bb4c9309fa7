"""Cache-key construction: comparator codes, rolling prefix hashes, tokens.

Every key in the result store (:mod:`repro.cache.store`) is assembled
from three ingredients, documented in ``docs/CACHING.md``:

*network identity* — :func:`comparator_codes` reads the one integer per
comparator that every network computes at most once
(:attr:`repro.core.ComparatorNetwork.codes`); :func:`prefix_hashes`
folds the code sequence into a rolling 64-bit polynomial hash with one value **per prefix length**, which is
what lets the store find the longest cached prefix of a new network with
one dictionary probe per candidate length (hash matches are verified
against the actual code sequence, so collisions cannot corrupt results);

*input identity* — a small hashable *token* naming the packed test-vector
chunk: :func:`cube_token` for block ranges of the exhaustive 0/1 cube
(pure arithmetic, nothing is read), :func:`array_token` for explicit 2-D
batches (a BLAKE2b content fingerprint over bytes + shape + dtype), and
:func:`words_token` for small tuple-list test sets (the words themselves,
exact by construction);

*execution identity* — the engine name and the plane geometry
``(n_lines, n_blocks)``; embedding them in the key *is* the invalidation
mechanism: changing engine or chunk geometry addresses different entries,
so stale reuse is structurally impossible.

Fault-simulation verdict keys additionally embed a *fault-universe
identity*: :func:`fault_token` flattens one fault (recursing through
composite models such as ``MultiFault``/``IntermittentFault``) into a
structured tuple of class name + field values, and :func:`faults_token`
folds a whole universe.  The structured form — unlike ``repr`` — is
independent of dataclass ``repr`` formatting and cannot collide between
two models that happen to print alike.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
import dataclasses
import hashlib

import numpy as np

from ..core.network import ComparatorNetwork

__all__ = [
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

#: Odd 64-bit multiplier of the rolling polynomial hash (golden-ratio
#: constant; odd, so multiplication is a bijection mod 2**64).
_HASH_MULT = 0x9E3779B97F4A7C15

#: Seed of the empty prefix — any fixed non-zero value works.
_HASH_SEED = 0x243F6A8885A308D3

_MASK64 = (1 << 64) - 1


def comparator_codes(network: ComparatorNetwork) -> tuple[int, ...]:
    """One integer per comparator: ``((low * n + high) * 2) | reversed``.

    The encoding is injective on a fixed line count, so two networks on
    the same ``n_lines`` share a code prefix exactly when they share the
    comparator prefix itself.  The network computes its codes at most
    once (:attr:`ComparatorNetwork.codes`); this reads them.

    Parameters
    ----------
    network : ComparatorNetwork
        The network to encode.

    Returns
    -------
    tuple of int
        ``network.size`` codes, in comparator order.
    """
    return network.codes


def prefix_hashes(codes: Sequence[int]) -> tuple[int, ...]:
    """Rolling 64-bit hash of every prefix of *codes*.

    ``h[0]`` hashes the empty prefix and ``h[i]`` the first ``i`` codes,
    via ``h[i+1] = (h[i] * MULT + code + 1) mod 2**64``.  Equal prefixes
    produce equal hashes by construction; the store treats a hash match
    as a *candidate* and verifies the underlying code sequence before
    reusing anything.

    Parameters
    ----------
    codes : sequence of int
        Comparator codes from :func:`comparator_codes`.

    Returns
    -------
    tuple of int
        ``len(codes) + 1`` hashes, one per prefix length.
    """
    h = _HASH_SEED
    out = [h]
    for code in codes:
        h = (h * _HASH_MULT + code + 1) & _MASK64
        out.append(h)
    return tuple(out)


def network_token(network: ComparatorNetwork) -> tuple:
    """Exact hashable identity of a full network (for verdict keys).

    The comparator codes themselves are embedded (not just their hash),
    so verdict keys can never collide across distinct networks.

    Parameters
    ----------
    network : ComparatorNetwork
        The network to identify.

    Returns
    -------
    tuple
        ``("net", n_lines, code_0, ..., code_{S-1})``.
    """
    return ("net", network.n_lines, *network.codes)


def cacheable_network(network: ComparatorNetwork) -> bool:
    """Is *network*'s behaviour its comparator list alone?

    Verdict keys and prefix records identify a network by its comparators
    (:func:`network_token`, :func:`comparator_codes`), and a prefix restore
    replays them.  The faulty-behaviour networks of
    :mod:`repro.faults.models` keep the fault-free comparator list but
    override ``apply_batch`` / ``apply_packed``, so a cached verdict or
    restore would answer for the fault-free network: the cached checkers
    send such networks down their uncached path instead.

    Parameters
    ----------
    network : ComparatorNetwork
        The network to classify.

    Returns
    -------
    bool
        ``True`` when no evaluation override is defined.
    """
    cls = type(network)
    return (
        getattr(cls, "apply_packed", None) is None
        and cls.apply_batch is ComparatorNetwork.apply_batch
    )


def batch_fingerprint(batch: np.ndarray) -> bytes:
    """BLAKE2b content fingerprint of a 2-D test-vector batch.

    Covers the raw bytes, the shape and the dtype, so two arrays get the
    same fingerprint exactly when they hold the same values in the same
    layout.  16-byte digests make accidental collisions negligible
    (``2**-64`` birthday bound at billions of entries) and the cache is
    per-process, so no adversarial inputs apply.

    Parameters
    ----------
    batch : numpy.ndarray
        The array to fingerprint (made contiguous if needed).

    Returns
    -------
    bytes
        16-byte digest.
    """
    arr = np.ascontiguousarray(batch)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(arr.dtype).encode())
    digest.update(repr(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.digest()


def cube_token(n: int, word_start: int = 0, num_words: int | None = None) -> tuple:
    """Token for a block range of the exhaustive 0/1 cube on *n* lines.

    Pure arithmetic — the cube is defined by ``n`` and the word span, so
    nothing needs to be hashed.

    Parameters
    ----------
    n : int
        Number of input lines (the cube holds ``2**n`` words).
    word_start : int
        First word of the span.
    num_words : int, optional
        Span length; defaults to the full cube.

    Returns
    -------
    tuple
        ``("cube", n, word_start, num_words)``.
    """
    return ("cube", n, word_start, (1 << n) if num_words is None else num_words)


def array_token(batch: np.ndarray) -> tuple:
    """Content token for an explicit 2-D batch (see :func:`batch_fingerprint`).

    Parameters
    ----------
    batch : numpy.ndarray
        The batch to identify.

    Returns
    -------
    tuple
        ``("array", digest)``.
    """
    return ("array", batch_fingerprint(batch))


def words_token(words: Iterable[Sequence[int]], n_lines: int) -> tuple:
    """Exact token for a small tuple-list test set.

    The words themselves are embedded, so the token is collision-free by
    construction; use only for test sets small enough to hold in a key.

    Parameters
    ----------
    words : iterable of int sequences
        The test words.
    n_lines : int
        Word length (part of the identity: the same bits on a different
        line count are a different input).

    Returns
    -------
    tuple
        ``("words", n_lines, words...)``.
    """
    return (
        "words",
        n_lines,
        tuple(tuple(int(v) for v in word) for word in words),
    )


def _fault_field_token(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return fault_token(value)
    if isinstance(value, tuple):
        return tuple(_fault_field_token(item) for item in value)
    return value


def fault_token(fault) -> tuple:
    """Structured hashable identity of one fault model instance.

    Flattens the fault's dataclass fields in declaration order, recursing
    into nested faults (``IntermittentFault.base``) and fault tuples
    (``MultiFault.faults``), and prefixes the class name — so two faults
    share a token exactly when they are the same model with the same
    parameters, regardless of how their ``repr`` happens to print.

    Parameters
    ----------
    fault : Fault
        A (frozen dataclass) fault model instance.

    Returns
    -------
    tuple
        ``(class_name, field_value_0, ...)`` with nested faults expanded
        to their own tokens.
    """
    return (
        type(fault).__name__,
        *(
            _fault_field_token(getattr(fault, field.name))
            for field in dataclasses.fields(fault)
        ),
    )


def faults_token(faults: Iterable) -> tuple:
    """Token of a whole fault universe, in simulation order.

    Parameters
    ----------
    faults : iterable of Fault
        The universe as passed to the detection entry points.

    Returns
    -------
    tuple
        One :func:`fault_token` per fault.
    """
    return tuple(fault_token(fault) for fault in faults)


def chunk_token(base: tuple, word_start: int, num_words: int) -> tuple:
    """Token of one streamed chunk of a larger input.

    Parameters
    ----------
    base : tuple
        Token of the whole input (:func:`array_token` / :func:`words_token`).
    word_start : int
        First word of the chunk.
    num_words : int
        Words in the chunk.

    Returns
    -------
    tuple
        ``base + (word_start, num_words)``.
    """
    return (*base, word_start, num_words)
