"""Fault diagnosis: dictionaries, diagnostic resolution, adaptive ordering.

Detection (:mod:`repro.faults.simulation`) answers "is the device faulty?";
diagnosis asks "*which* fault is it?".  The classical tool is the **fault
dictionary**: simulate every fault of the universe against the test set,
record each fault's detection *signature* (the per-vector pass/fail row of
the detection matrix) and group faults with identical signatures into
candidate equivalence classes.  Observing a device's pass/fail behaviour
then narrows the defect down to one class — the finer the partition, the
better the *diagnostic resolution* of the test set.

Three entry points:

* :func:`build_fault_dictionary` / :func:`fault_dictionary_from_matrix` —
  construct a :class:`FaultDictionary` (signature → candidate faults);
* :meth:`FaultDictionary.resolution` — the :class:`DiagnosticResolution`
  report (class counts, singleton fraction, undetected residue);
* :func:`adaptive_test_order` — greedy re-ordering of the test vectors so
  that each next vector maximises the number of candidate classes it
  splits, i.e. the order an adaptive tester should apply them in.

The supported façade is :meth:`repro.api.Session.diagnose`, which runs the
detection matrix through the session's engine/sharding/cache configuration
and returns a typed result; the functions here are the engine-agnostic
core.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .._typing import WordLike
from ..core.network import ComparatorNetwork
from .models import Fault
from .simulation import (
    CubeVectors,
    SimulationStats,
    _fault_detection_matrix_impl,
)

__all__ = [
    "DiagnosticResolution",
    "FaultDictionary",
    "adaptive_test_order",
    "build_fault_dictionary",
    "fault_dictionary_from_matrix",
]


@dataclass(frozen=True)
class DiagnosticResolution:
    """How finely a test set separates a fault universe.

    Attributes
    ----------
    num_faults : int
        Size of the fault universe.
    num_classes : int
        Number of distinct detection signatures (candidate classes).
    singleton_classes : int
        Classes containing exactly one fault — fully localised defects.
    max_class_size : int
        Size of the largest (least resolved) class.
    undetected_faults : int
        Faults whose signature is all-zero: the test set cannot even
        detect them, let alone localise them.
    resolution : float
        ``num_classes / num_faults`` (1.0 for an empty universe).  1.0
        means every fault is uniquely identified by its signature.
    """

    num_faults: int
    num_classes: int
    singleton_classes: int
    max_class_size: int
    undetected_faults: int
    resolution: float

    @property
    def fully_resolved(self) -> bool:
        """True when every fault has a unique signature."""
        return self.num_classes == self.num_faults


@dataclass(frozen=True)
class FaultDictionary:
    """A signature → candidate-fault-class dictionary.

    Classes appear in first-occurrence order over the fault universe, so
    the dictionary is deterministic for a given (network, faults, vectors)
    triple regardless of engine, sharding or caching — the bit-identity
    guarantee of the detection matrix carries over.

    Attributes
    ----------
    signatures : tuple of bytes
        One per class: the detection row (one byte per test vector, 0 =
        passes / 1 = fails) shared by every fault in the class.
    classes : tuple of tuple of Fault
        The candidate equivalence classes, aligned with *signatures*.
    num_vectors : int
        Number of test vectors each signature spans.
    criterion : str
        The detection criterion the signatures were simulated under.
    """

    signatures: tuple[bytes, ...]
    classes: tuple[tuple[Fault, ...], ...]
    num_vectors: int
    criterion: str

    @property
    def num_faults(self) -> int:
        """Total number of faults across all classes."""
        return sum(len(members) for members in self.classes)

    @property
    def num_classes(self) -> int:
        """Number of candidate classes (distinct signatures)."""
        return len(self.classes)

    def lookup(self, observed) -> tuple[Fault, ...]:
        """Candidate faults for an observed pass/fail signature.

        Parameters
        ----------
        observed : bytes or array-like of bool
            A device's per-vector fail row — either raw signature bytes or
            a boolean vector of length :attr:`num_vectors`.

        Returns
        -------
        tuple of Fault
            The matching candidate class; empty when no modelled fault
            produces that signature.
        """
        if not isinstance(observed, bytes):
            observed = np.asarray(observed, dtype=bool).tobytes()
        for signature, members in zip(self.signatures, self.classes):
            if signature == observed:
                return members
        return ()

    def resolution(self) -> DiagnosticResolution:
        """The :class:`DiagnosticResolution` report of this dictionary."""
        sizes = [len(members) for members in self.classes]
        num_faults = sum(sizes)
        return DiagnosticResolution(
            num_faults=num_faults,
            num_classes=len(sizes),
            singleton_classes=sum(1 for size in sizes if size == 1),
            max_class_size=max(sizes, default=0),
            undetected_faults=len(self.lookup(bytes(self.num_vectors))),
            resolution=(len(sizes) / num_faults) if num_faults else 1.0,
        )


def fault_dictionary_from_matrix(
    faults: Sequence[Fault],
    matrix: np.ndarray,
    *,
    criterion: str = "specification",
) -> FaultDictionary:
    """Group an existing detection matrix into a :class:`FaultDictionary`.

    Parameters
    ----------
    faults : sequence of Fault
        The fault universe, aligned with the matrix rows.
    matrix : numpy.ndarray
        Boolean detection matrix of shape ``(num_faults, num_vectors)``
        (e.g. from :meth:`repro.api.Session.fault_matrix`).
    criterion : str
        Detection criterion recorded on the dictionary.

    Returns
    -------
    FaultDictionary
        Signature classes in first-occurrence order.
    """
    data = np.asarray(matrix, dtype=bool)
    grouped: dict[bytes, list[Fault]] = {}
    for fault, row in zip(faults, data):
        grouped.setdefault(row.tobytes(), []).append(fault)
    return FaultDictionary(
        signatures=tuple(grouped),
        classes=tuple(tuple(members) for members in grouped.values()),
        num_vectors=int(data.shape[1]) if data.ndim == 2 else 0,
        criterion=criterion,
    )


def build_fault_dictionary(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    stats: SimulationStats | None = None,
) -> FaultDictionary:
    """Simulate the universe and build its :class:`FaultDictionary`.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free reference device.
    faults : sequence of Fault
        The fault universe (any registered model, composites included).
    test_vectors : sequence of words, 2-D array, or CubeVectors
        Vectors the signatures are recorded over.
    criterion, stats :
        Forwarded to :func:`repro.faults.simulation.fault_detection_matrix`,
        which runs the kernel of the vectors' value domain;
        :meth:`repro.api.Session.diagnose` pins an engine or chooses workers,
        chunk size, pruning and caching, and also reports timings.

    Returns
    -------
    FaultDictionary
        The signature → candidate-class dictionary.
    """
    matrix = _fault_detection_matrix_impl(
        network, faults, test_vectors, criterion=criterion, stats=stats
    )
    return fault_dictionary_from_matrix(faults, matrix, criterion=criterion)


def adaptive_test_order(matrix: np.ndarray) -> list[int]:
    """Greedy vector order maximising candidate-class splitting.

    An adaptive tester applies vectors one at a time and prunes the
    candidate set after each observation.  This helper orders the columns
    of a detection matrix so each chosen vector splits as many of the
    current candidate classes as possible (ties broken towards the lower
    column index), stopping once no remaining vector refines the
    partition — the returned prefix reaches the dictionary's full
    diagnostic resolution.

    Parameters
    ----------
    matrix : numpy.ndarray
        Boolean detection matrix of shape ``(num_faults, num_vectors)``.

    Returns
    -------
    list of int
        Column indices in greedy order; exhausting them yields the same
        partition as applying every vector.
    """
    data = np.asarray(matrix, dtype=bool)
    if data.ndim != 2 or 0 in data.shape:
        return []
    blocks: list[np.ndarray] = [np.arange(data.shape[0])]
    remaining = list(range(data.shape[1]))
    order: list[int] = []
    while remaining:
        best_column = -1
        best_splits = 0
        for column in remaining:
            splits = 0
            for block in blocks:
                hits = int(np.count_nonzero(data[block, column]))
                if 0 < hits < len(block):
                    splits += 1
            if splits > best_splits:
                best_column, best_splits = column, splits
        if best_column < 0:
            break
        order.append(best_column)
        remaining.remove(best_column)
        refined: list[np.ndarray] = []
        for block in blocks:
            hits = data[block, best_column]
            count = int(np.count_nonzero(hits))
            if 0 < count < len(block):
                refined.append(block[hits])
                refined.append(block[~hits])
            else:
                refined.append(block)
        blocks = refined
    return order
