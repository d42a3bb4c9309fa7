"""Shared type aliases used across the :mod:`repro` package.

The library manipulates three kinds of values:

* *words* — fixed-length vectors of comparable elements fed to a network.
  Binary words are vectors over ``{0, 1}``; permutation words are
  permutations of ``0..n-1`` (the paper uses ``1..n``, the off-by-one is a
  representation detail only).
* *comparators* — ordered pairs of line indices.
* *networks* — sequences of comparators on a fixed number of lines.

Words are exposed to users as plain tuples of Python ints so they hash, sort
and compare naturally and can be used as dictionary keys and set members.
Internally the evaluation engine converts batches of words to numpy arrays.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np
import numpy.typing as npt

__all__ = [
    "Word",
    "BinaryWord",
    "Permutation",
    "WordLike",
    "Batch",
    "IntArray",
    "LinePair",
]

#: A word: an n-tuple of integers (inputs or outputs of a network).
Word = tuple[int, ...]

#: A word over {0, 1}.
BinaryWord = tuple[int, ...]

#: A permutation of 0..n-1 represented in one-line notation.
Permutation = tuple[int, ...]

#: Anything acceptable where a word is expected.
WordLike = Sequence[int] | np.ndarray

#: A batch of words: 2-D integer array of shape (num_words, num_lines).
Batch = npt.NDArray[np.integer]

#: Any integer numpy array.
IntArray = npt.NDArray[np.integer]

#: A pair of line indices (0-based, low < high for standard comparators).
LinePair = tuple[int, int]


def as_word(values: WordLike) -> Word:
    """Normalise *values* into a plain tuple of Python ints.

    Accepts any sequence of integers or a 1-D numpy array.  Floats that are
    integral are accepted (and converted); a non-integral value raises
    ``ValueError`` instead of being truncated, and anything ``int`` cannot
    convert raises ``TypeError``/``ValueError`` from the conversion.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {values.shape}")
        values = values.tolist()
    given = tuple(values)
    word = tuple(map(int, given))
    if word != given:
        value = next(v for v, w in zip(given, word) if v != w)
        raise ValueError(f"word value {value!r} is not an integer")
    return word


def as_words(items: Iterable[WordLike]) -> tuple[Word, ...]:
    """Normalise an iterable of word-like values into a tuple of words."""
    return tuple(as_word(item) for item in items)
