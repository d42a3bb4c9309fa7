"""Fault-coverage metrics and test-vector selection (ATPG-style).

Built on the detection machinery of :mod:`repro.faults.simulation`:

* :func:`fault_coverage` — fraction of faults detected by a vector set;
* :func:`coverage_report` — per-fault-kind breakdown used by experiment E11;
* :func:`greedy_test_selection` — choose a small sub-set of vectors reaching
  the coverage of the full set (classical greedy set cover);
* :func:`compare_test_sets` — side-by-side coverage of several candidate
  test sets (e.g. the paper's minimum sorting test set vs. random vectors of
  the same size), which is the core of the VLSI-motivation experiment.

The coverage helpers reduce the vector axis on the fly
(:func:`repro.faults.simulation.fault_detection_any`), so the exhaustive
cube (:class:`repro.faults.simulation.CubeVectors`) can be used as a test
set in constant memory; only :func:`greedy_test_selection` needs the full
per-vector matrix.

The free functions run in-process on the kernel of their vectors' value
domain (bit-packed for 0/1 vectors, vectorised otherwise; see
:func:`repro.core.evaluation.route_engine`).  To pin an engine or choose
workers, chunk size or pruning, use
:meth:`repro.api.Session.fault_coverage`, which returns a typed report
carrying the same numbers plus timings and execution metadata (it calls
the same implementation, so the numbers are bit-identical).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._typing import WordLike
from ..core.evaluation import _explicit_word_array
from ..core.network import ComparatorNetwork
from ..exceptions import FaultModelError
from .models import Fault
from .simulation import (
    CubeVectors,
    SimulationStats,
    _fault_detection_any_impl,
    _fault_detection_matrix_impl,
)

if TYPE_CHECKING:
    from ..parallel.config import ExecutionConfig

__all__ = [
    "fault_coverage",
    "coverage_report",
    "greedy_test_selection",
    "compare_test_sets",
    "CoverageReport",
]


@dataclass(frozen=True)
class CoverageReport:
    """Summary of a fault-simulation run.

    Attributes
    ----------
    total_faults : int
        Number of faults simulated.
    detected_faults : int
        Number detected by at least one vector.
    coverage : float
        ``detected_faults / total_faults`` (1.0 when there are no faults).
    by_kind : mapping of str to (int, int)
        Mapping from fault class name to ``(detected, total)`` pairs.
    vectors_used : int
        Number of test vectors applied.
    """

    total_faults: int
    detected_faults: int
    coverage: float
    by_kind: Mapping[str, tuple[int, int]]
    vectors_used: int


def _num_vectors(test_vectors: Sequence[WordLike] | CubeVectors) -> int:
    """Vector count without materialising lazy sources."""
    if isinstance(test_vectors, (CubeVectors, np.ndarray)):
        return len(test_vectors)
    return len(list(test_vectors))


def fault_coverage(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    stats: SimulationStats | None = None,
) -> float:
    """Fraction of *faults* detected by *test_vectors*.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free reference device.
    faults : sequence of Fault
        The fault universe (1.0 is returned when it is empty).
    test_vectors : sequence of words, 2-D array, or CubeVectors
        Vectors to apply; :class:`~repro.faults.simulation.CubeVectors`
        streams the exhaustive cube in constant memory.
    criterion, stats :
        Forwarded to :func:`repro.faults.simulation.fault_detection_any`.

    Returns
    -------
    float
        Detected fraction in ``[0, 1]``.
    """
    return _fault_coverage_impl(
        network, faults, test_vectors, criterion=criterion, stats=stats
    )


def _fault_coverage_impl(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str | None = None,
    config: ExecutionConfig | None = None,
    prune: bool = True,
    stats: SimulationStats | None = None,
    cache=None,
) -> float:
    """:func:`fault_coverage` with its execution configured (Session
    backend); the knobs follow
    :func:`repro.faults.simulation._fault_detection_matrix_impl`."""
    if not faults:
        return 1.0
    detected = _fault_detection_any_impl(
        network, faults, test_vectors, criterion=criterion, engine=engine,
        config=config, prune=prune, stats=stats, cache=cache,
    )
    return float(np.mean(detected))


def coverage_report(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    stats: SimulationStats | None = None,
) -> CoverageReport:
    """Full coverage report with a per-fault-kind breakdown.

    Parameters are those of :func:`fault_coverage`; the per-vector
    matrix is never materialised, so exhaustive
    (:class:`~repro.faults.simulation.CubeVectors`) test sets run in
    constant memory.

    Returns
    -------
    CoverageReport
        Totals, coverage fraction and the per-fault-kind breakdown.
    """
    return _coverage_report_impl(
        network, faults, test_vectors, criterion=criterion, stats=stats
    )


def _coverage_report_impl(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_vectors: Sequence[WordLike] | CubeVectors,
    *,
    criterion: str = "specification",
    engine: str | None = None,
    config: ExecutionConfig | None = None,
    prune: bool = True,
    stats: SimulationStats | None = None,
    cache=None,
) -> CoverageReport:
    """:func:`coverage_report` with its execution configured (Session
    backend); the knobs follow :func:`_fault_coverage_impl`."""
    detected = (
        _fault_detection_any_impl(
            network, faults, test_vectors, criterion=criterion, engine=engine,
            config=config, prune=prune, stats=stats, cache=cache,
        )
        if faults
        else np.zeros(0, dtype=bool)
    )
    by_kind: dict[str, tuple[int, int]] = {}
    for fault, hit in zip(faults, detected):
        kind = type(fault).__name__
        found, total = by_kind.get(kind, (0, 0))
        by_kind[kind] = (found + int(hit), total + 1)
    total_faults = len(faults)
    detected_count = int(np.sum(detected)) if total_faults else 0
    return CoverageReport(
        total_faults=total_faults,
        detected_faults=detected_count,
        coverage=(detected_count / total_faults) if total_faults else 1.0,
        by_kind=by_kind,
        vectors_used=_num_vectors(test_vectors),
    )


def greedy_test_selection(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    candidate_vectors: Sequence[WordLike],
    *,
    criterion: str = "specification",
    target_coverage: float = 1.0,
) -> list[tuple]:
    """Greedy selection of vectors until *target_coverage* of detectable faults.

    Coverage is measured relative to the faults detectable by the *full*
    candidate set (undetectable faults cannot be covered by any selection and
    are excluded from the target), so ``target_coverage=1.0`` always
    terminates.  This is the one coverage helper that materialises the full
    detection matrix (set cover needs the per-vector columns), so cube-scale
    candidate sets are out of scope — pass an explicit candidate list.  The
    matrix runs on the kernel of the candidates' value domain, like
    :func:`fault_coverage`.

    Returns
    -------
    list of tuple
        The selected vectors, in greedy order, as Python ints — or with
        their own values when the candidates are float words holding
        fractional ones (an array or a list).
    """
    if not 0.0 < target_coverage <= 1.0:
        raise FaultModelError(
            f"target_coverage must be in (0, 1], got {target_coverage}"
        )
    # Fractional float candidates, as an array or a list, are simulated
    # and returned as given; everything else is built as int64 (returned
    # as ints).
    batch = _explicit_word_array(candidate_vectors, n_lines=network.n_lines)
    matrix = _fault_detection_matrix_impl(
        network, faults, batch, criterion=criterion
    )
    detectable = np.any(matrix, axis=1)
    needed = int(np.ceil(target_coverage * int(np.sum(detectable))))
    selected: list[int] = []
    covered = np.zeros(len(faults), dtype=bool)
    while int(np.sum(covered & detectable)) < needed:
        gains = np.sum(matrix[:, :] & ~covered[:, None], axis=0)
        for index in selected:
            gains[index] = -1
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break
        selected.append(best)
        covered |= matrix[:, best]
    return [tuple(batch[i].tolist()) for i in selected]


def compare_test_sets(
    network: ComparatorNetwork,
    faults: Sequence[Fault],
    test_sets: Mapping[str, Sequence[WordLike] | CubeVectors],
    *,
    criterion: str = "specification",
) -> dict[str, CoverageReport]:
    """Coverage of several named test sets against the same fault universe.

    :meth:`repro.api.Session.compare_test_sets` runs the same comparison
    on a configured Session.

    Returns
    -------
    dict of str to CoverageReport
        One report per entry of *test_sets*, in input order.
    """
    return {
        name: _coverage_report_impl(
            network, faults, vectors, criterion=criterion
        )
        for name, vectors in test_sets.items()
    }
