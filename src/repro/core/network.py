"""The :class:`ComparatorNetwork` data model.

A comparator network of size ``n`` is a sequence of comparators over ``n``
lines, applied left to right (Fig. 1 of the paper).  The network of Fig. 1 is
``[1,3][2,4][1,2][3,4]`` in the paper's 1-indexed notation; with the
library's 0-indexed lines it is::

    >>> from repro.core import ComparatorNetwork
    >>> fig1 = ComparatorNetwork.from_pairs(4, [(0, 2), (1, 3), (0, 1), (2, 3)])
    >>> fig1(( 4, 1, 3, 2 ))
    (1, 2, 3, 4)

Networks are immutable value objects: all "mutating" operations return a new
network.  Equality is structural (same line count, same comparator sequence).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from .._typing import Word, WordLike, as_word
from ..exceptions import (
    InputLengthError,
    InvalidComparatorError,
    LineCountError,
)
from .comparator import Comparator

__all__ = ["ComparatorNetwork"]


def _comparator_code(comp: Comparator, n_lines: int) -> int:
    """The code of *comp* on *n_lines* lines (see :attr:`ComparatorNetwork.codes`)."""
    return ((comp.low * n_lines + comp.high) << 1) | comp.reversed


class ComparatorNetwork:
    """An immutable comparator network on ``n_lines`` lines.

    Parameters
    ----------
    n_lines:
        Number of input/output lines.  Must be at least 1.
    comparators:
        Iterable of :class:`~repro.core.comparator.Comparator` objects (or
        ``(low, high)`` pairs) applied in order.

    Notes
    -----
    The paper restricts attention to *standard* comparators.  The class
    accepts reversed comparators as well (``standard`` reports whether the
    whole network is standard), because the fault-injection substrate and the
    bitonic construction need them, but every test-set result re-proved here
    is stated for standard networks exactly as in the paper.
    """

    __slots__ = ("_n_lines", "_comparators", "_codes", "_hash")

    def __init__(self, n_lines: int, comparators: Iterable = ()) -> None:
        if not isinstance(n_lines, int):
            raise LineCountError(f"n_lines must be an int, got {n_lines!r}")
        if n_lines < 1:
            raise LineCountError(f"n_lines must be >= 1, got {n_lines}")
        comps: list[Comparator] = []
        for item in comparators:
            comp = item if isinstance(item, Comparator) else Comparator(*item)
            if comp.high >= n_lines:
                raise InvalidComparatorError(
                    f"comparator {comp} does not fit on {n_lines} lines"
                )
            comps.append(comp)
        self._n_lines = n_lines
        self._comparators = tuple(comps)
        self._codes: tuple[int, ...] | None = None
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def _derived(
        n_lines: int, comparators: tuple[Comparator, ...], codes: tuple[int, ...]
    ) -> ComparatorNetwork:
        """A base-class network over comparators already checked to fit.

        The structural operations derive a network mostly from a network's
        own (validated) comparators; this skips re-checking them, so the
        caller validates only the comparators it adds.  *codes* are the
        comparators' codes, derived the same way from the source network's
        :attr:`codes` (a slice or splice of a tuple instead of re-encoding
        every comparator).
        """
        network = object.__new__(ComparatorNetwork)
        network._n_lines = n_lines
        network._comparators = comparators
        network._codes = codes
        network._hash = None
        return network

    def _checked(self, item) -> Comparator:
        """*item* (a comparator or ``(low, high)`` pair) as a comparator
        that fits on this network's lines.

        ``__init__`` inlines the same check: a call per comparator would
        slow every network build.
        """
        comp = item if isinstance(item, Comparator) else Comparator(*item)
        if comp.high >= self._n_lines:
            raise InvalidComparatorError(
                f"comparator {comp} does not fit on {self._n_lines} lines"
            )
        return comp

    @classmethod
    def from_pairs(
        cls, n_lines: int, pairs: Iterable[tuple[int, int]]
    ) -> ComparatorNetwork:
        """Build a standard network from ``(low, high)`` pairs (0-indexed)."""
        return cls(n_lines, [Comparator(a, b) for a, b in pairs])

    @classmethod
    def identity(cls, n_lines: int) -> ComparatorNetwork:
        """The empty network: passes every input through unchanged."""
        return cls(n_lines, ())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_lines(self) -> int:
        """Number of lines (the paper's ``n``)."""
        return self._n_lines

    @property
    def comparators(self) -> tuple[Comparator, ...]:
        """The comparator sequence, in application order."""
        return self._comparators

    @property
    def codes(self) -> tuple[int, ...]:
        """One integer per comparator: ``((low * n_lines + high) << 1) | reversed``.

        Injective on a fixed line count, so two networks on the same
        ``n_lines`` share a code prefix exactly when they share the
        comparator prefix.  Computed at most once per instance: on first
        read for a network built through ``__init__``, and spliced from
        the source network's codes by the structural operations.  The
        cache keys of :mod:`repro.cache.keys` are built from it.
        """
        if self._codes is None:
            n = self._n_lines
            self._codes = tuple(_comparator_code(c, n) for c in self._comparators)
        return self._codes

    @property
    def size(self) -> int:
        """Number of comparators (the usual size measure for networks)."""
        return len(self._comparators)

    @property
    def standard(self) -> bool:
        """``True`` when every comparator is standard (the paper's model)."""
        return all(c.standard for c in self._comparators)

    @property
    def height(self) -> int:
        """Maximum comparator span (Section 3's height measure).

        The empty network has height 0.  A height-1 network is *primitive*
        in Knuth's terminology.
        """
        if not self._comparators:
            return 0
        return max(c.span for c in self._comparators)

    def lines_touched(self) -> tuple[int, ...]:
        """Sorted tuple of lines touched by at least one comparator."""
        touched = set()
        for c in self._comparators:
            touched.add(c.low)
            touched.add(c.high)
        return tuple(sorted(touched))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, word: WordLike) -> Word:
        """Apply the network to a single word and return the output word."""
        return self.apply(word)

    def apply(self, word: WordLike) -> Word:
        """Apply the network to a single word (scalar reference semantics).

        Works for arbitrary comparable integers, not just 0/1 — the zero-one
        principle experiments rely on being able to feed both.
        """
        values = list(as_word(word))
        if len(values) != self._n_lines:
            raise InputLengthError(
                f"expected a word of length {self._n_lines}, got {len(values)}"
            )
        for comp in self._comparators:
            a, b = values[comp.low], values[comp.high]
            lo, hi = (a, b) if a <= b else (b, a)
            if comp.reversed:
                lo, hi = hi, lo
            values[comp.low] = lo
            values[comp.high] = hi
        return tuple(values)

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        """Apply the network to a batch of words (vectorised).

        Parameters
        ----------
        batch:
            Integer array of shape ``(num_words, n_lines)``.  The input is
            not modified.

        Returns
        -------
        numpy.ndarray
            Array of the same shape holding the outputs.

        Notes
        -----
        This is the hot path of the whole library: a comparator is two
        vectorised reductions (``minimum``/``maximum``) over a column pair,
        so evaluating a network of size ``s`` on ``m`` words costs
        ``O(s * m)`` element operations with no Python-level per-word loop.
        """
        from .evaluation import apply_network_to_batch

        return apply_network_to_batch(self, batch)

    def trace(self, word: WordLike) -> list[Word]:
        """Return the sequence of intermediate words, one per comparator.

        ``trace(w)[0]`` is the input and ``trace(w)[-1]`` is the output; the
        list has ``size + 1`` entries.  Useful for diagrams and debugging.
        """
        values = list(as_word(word))
        if len(values) != self._n_lines:
            raise InputLengthError(
                f"expected a word of length {self._n_lines}, got {len(values)}"
            )
        states = [tuple(values)]
        for comp in self._comparators:
            a, b = values[comp.low], values[comp.high]
            lo, hi = (a, b) if a <= b else (b, a)
            if comp.reversed:
                lo, hi = hi, lo
            values[comp.low] = lo
            values[comp.high] = hi
            states.append(tuple(values))
        return states

    # ------------------------------------------------------------------
    # Structural operations (all return new networks)
    # ------------------------------------------------------------------
    def then(self, other: ComparatorNetwork) -> ComparatorNetwork:
        """Sequential composition: run ``self`` first, then *other*.

        Both networks must have the same number of lines.
        """
        if other.n_lines != self._n_lines:
            raise LineCountError(
                f"cannot compose networks on {self._n_lines} and {other.n_lines} lines"
            )
        return self._derived(
            self._n_lines,
            self._comparators + other.comparators,
            self.codes + other.codes,
        )

    def __add__(self, other: ComparatorNetwork) -> ComparatorNetwork:
        return self.then(other)

    def extended(self, comparators: Iterable) -> ComparatorNetwork:
        """Return a copy with extra comparators appended."""
        extra = tuple(self._checked(c) for c in comparators)
        n = self._n_lines
        return self._derived(
            n,
            self._comparators + extra,
            self.codes + tuple(_comparator_code(c, n) for c in extra),
        )

    def prefix(self, num_comparators: int) -> ComparatorNetwork:
        """Return the network consisting of the first *num_comparators* stages."""
        if num_comparators < 0:
            raise ValueError("num_comparators must be non-negative")
        return self._derived(
            self._n_lines,
            self._comparators[:num_comparators],
            self.codes[:num_comparators],
        )

    def without_comparator(self, index: int) -> ComparatorNetwork:
        """Return a copy with the comparator at *index* removed.

        Used by the fault models ("stuck-pass" faults delete a comparator).
        """
        comps = list(self._comparators)
        codes = list(self.codes)
        del comps[index]
        del codes[index]
        return self._derived(self._n_lines, tuple(comps), tuple(codes))

    def with_comparator_replaced(
        self, index: int, comparator: Comparator
    ) -> ComparatorNetwork:
        """Return a copy with the comparator at *index* replaced."""
        comps = list(self._comparators)
        codes = list(self.codes)
        comps[index] = comp = self._checked(comparator)
        codes[index] = _comparator_code(comp, self._n_lines)
        return self._derived(self._n_lines, tuple(comps), tuple(codes))

    def on_lines(
        self, n_lines: int, lines: Sequence[int]
    ) -> ComparatorNetwork:
        """Embed this network into a larger network.

        The *i*-th line of ``self`` is routed to line ``lines[i]`` of a new
        network with *n_lines* lines; all other lines pass straight through.
        ``lines`` must be strictly increasing so that standard comparators
        stay standard — this matches the paper's figures, where a small
        gadget (e.g. ``H_100``) is attached to a subset of lines "and all
        other lines bypass it".
        """
        if len(lines) != self._n_lines:
            raise LineCountError(
                f"need {self._n_lines} target lines, got {len(lines)}"
            )
        if any(l < 0 or l >= n_lines for l in lines):
            raise LineCountError(f"target lines {lines!r} out of range for {n_lines} lines")
        if any(b <= a for a, b in zip(lines, lines[1:])):
            raise LineCountError(
                f"target lines must be strictly increasing, got {lines!r}"
            )
        mapping = dict(enumerate(lines))
        comps = [c.relabelled(mapping) for c in self._comparators]
        return ComparatorNetwork(n_lines, comps)

    def shifted(self, offset: int, n_lines: int | None = None) -> ComparatorNetwork:
        """Return a copy on ``n_lines`` lines with every comparator shifted."""
        total = n_lines if n_lines is not None else self._n_lines + offset
        comps = [c.shifted(offset) for c in self._comparators]
        return ComparatorNetwork(total, comps)

    def dual(self) -> ComparatorNetwork:
        """Complement–reverse dual network.

        If ``phi`` denotes the complement–reverse map on binary words
        (``phi(x)[i] = 1 - x[n-1-i]``), the dual network ``D`` satisfies
        ``D(phi(x)) == phi(self(x))`` for every binary word ``x``.  Duality
        preserves standardness, size, depth and height, and maps sorters to
        sorters.  Lemma 2.1's construction uses it to reduce the "unsorted
        suffix" case to the "unsorted prefix" case.
        """
        comps = [c.dual(self._n_lines) for c in self._comparators]
        return ComparatorNetwork(self._n_lines, comps)

    def reversed_order(self) -> ComparatorNetwork:
        """Return the network with its comparator sequence reversed.

        Note that this is *not* an inverse: comparator networks are not
        invertible in general.  It is occasionally useful when enumerating
        structurally distinct networks.
        """
        return ComparatorNetwork(self._n_lines, tuple(reversed(self._comparators)))

    def relabelled(self, mapping: Callable[[int], int]) -> ComparatorNetwork:
        """Return a copy with lines relabelled through *mapping*.

        The mapping must be a bijection on ``0..n_lines-1``; comparators
        whose endpoints get swapped by the relabelling become reversed so
        that the value routing is preserved.
        """
        comps = [c.relabelled(mapping) for c in self._comparators]
        return ComparatorNetwork(self._n_lines, comps)

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def layers(self) -> list[list[Comparator]]:
        """Greedy decomposition into parallel layers (see :mod:`repro.core.layers`)."""
        from .layers import decompose_into_layers

        return decompose_into_layers(self)

    @property
    def depth(self) -> int:
        """Parallel depth: number of layers in the greedy ASAP schedule."""
        from .layers import network_depth

        return network_depth(self)

    def diagram(self, **kwargs) -> str:
        """ASCII Knuth-style diagram of the network (see :mod:`repro.core.diagram`)."""
        from .diagram import render_network

        return render_network(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_pairs(self) -> list[tuple[int, int]]:
        """Return the comparators as a list of ``(low, high)`` pairs.

        Raises ``ValueError`` if the network contains reversed comparators
        (they cannot be represented as bare pairs without losing semantics).
        """
        if not self.standard:
            raise ValueError(
                "network contains reversed comparators; use to_dict() instead"
            )
        return [(c.low, c.high) for c in self._comparators]

    def to_dict(self) -> dict:
        """JSON-friendly dictionary form (see :mod:`repro.core.serialization`)."""
        from .serialization import network_to_dict

        return network_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> ComparatorNetwork:
        """Rebuild a network from its :meth:`to_dict` form."""
        from .serialization import network_from_dict

        return network_from_dict(data)

    def to_knuth(self) -> str:
        """The paper's bracket notation, 1-indexed: ``"[1,3][2,4][1,2][3,4]"``."""
        from .serialization import network_to_knuth

        return network_to_knuth(self)

    @classmethod
    def from_knuth(cls, n_lines: int, text: str) -> ComparatorNetwork:
        """Parse the paper's 1-indexed bracket notation (see :meth:`to_knuth`)."""
        from .serialization import network_from_knuth

        return network_from_knuth(n_lines, text)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._comparators)

    def __iter__(self) -> Iterator[Comparator]:
        return iter(self._comparators)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._derived(
                self._n_lines, self._comparators[index], self.codes[index]
            )
        return self._comparators[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComparatorNetwork):
            return NotImplemented
        return (
            self._n_lines == other._n_lines
            and self._comparators == other._comparators
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n_lines, self._comparators))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = "".join(str(c) for c in self._comparators[:8])
        if len(self._comparators) > 8:
            body += f"...(+{len(self._comparators) - 8})"
        return f"ComparatorNetwork(n_lines={self._n_lines}, size={self.size}, {body})"
