"""Golden wire text for the :mod:`repro.api` result types.

The hypothesis round trips in ``tests/test_result_serialization.py`` show
that the encoder agrees with its own decoder; they cannot show that the
bytes stayed the same from one version to the next.  This module can:
one deterministic value per result type is built below, and its
``to_json()`` text must equal the committed file under
``tests/data/wire/`` byte for byte (the file adds one trailing newline).
A result record journalled by an earlier server therefore still replays
verbatim and still decodes.

The values use dyadic floats (exact in binary), a trace rebuilt with
:meth:`repro.observe.Trace.from_dict`, a fixed 3 x 5 matrix, a coverage
report with a resolution and a fault dictionary that holds an instance
of every registered fault model, composites included.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import fault_model_names
from repro.api.results import (
    CoverageReport,
    DiagnosisResult,
    ExecutionInfo,
    FaultMatrixResult,
    TestSetResult,
    VerificationResult,
)
from repro.cache.store import CacheStats
from repro.faults.diagnosis import DiagnosticResolution, FaultDictionary
from repro.faults.models import (
    BridgingFault,
    IntermittentFault,
    LineStuckFault,
    MultiFault,
    ReversedComparatorFault,
    StuckPassFault,
    StuckSwapFault,
)
from repro.faults.simulation import SimulationStats
from repro.observe import Trace

WIRE_DIR = Path(__file__).resolve().parent / "data" / "wire"

_TRACE = {
    "spans": [
        {
            "name": "fault_coverage",
            "start": 0.0,
            "seconds": 0.5,
            "meta": {"engine": "bitpacked", "n": 5},
            "counters": {"faults": 12, "pruned_stage_blocks": 7},
            "children": [
                {
                    "name": "chunk",
                    "start": 0.125,
                    "seconds": 0.25,
                    "meta": {},
                    "counters": {},
                    "children": [],
                }
            ],
        }
    ]
}


def _execution(seconds: float = 0.375) -> ExecutionInfo:
    return ExecutionInfo(
        engine_requested="bitpacked",
        engine_effective="vectorized",
        workers=2,
        chunk_words=4096,
        grid_shape=(3, 2),
        seconds=seconds,
        cache=CacheStats(
            prefix_hits=1,
            prefix_partial_hits=2,
            prefix_misses=3,
            reused_comparators=40,
            verdict_hits=5,
            verdict_misses=6,
            input_hits=7,
            input_misses=8,
            memo_hits=9,
            memo_misses=10,
            evictions=11,
            stored_bytes=123456,
            entries=13,
        ),
        trace=Trace.from_dict(_TRACE),
    )


def _stats() -> SimulationStats:
    return SimulationStats(
        faults=12,
        converged_faults=3,
        dropped_faults=4,
        evaluated_stage_blocks=150,
        pruned_stage_blocks=70,
        planned_grid=(2, 3),
    )


def _resolution() -> DiagnosticResolution:
    return DiagnosticResolution(
        num_faults=9,
        num_classes=5,
        singleton_classes=3,
        max_class_size=3,
        undetected_faults=1,
        resolution=0.5625,
    )


def _coverage() -> CoverageReport:
    return CoverageReport(
        total_faults=9,
        detected_faults=8,
        coverage=0.875,
        by_kind={"StuckPassFault": (4, 5), "MultiFault": (4, 4)},
        vectors_used=32,
        criterion="specification",
        stats=_stats(),
        execution=_execution(0.25),
        resolution=_resolution(),
    )


def _every_fault_model() -> tuple:
    return (
        StuckPassFault(0),
        StuckSwapFault(1),
        ReversedComparatorFault(2),
        LineStuckFault(line=3, value=1, stage=2),
        BridgingFault(1, 2, "or"),
        IntermittentFault(LineStuckFault(0, 0), salt=5),
        MultiFault(
            (StuckPassFault(3), LineStuckFault(4, 1), BridgingFault(0, 1))
        ),
    )


def _dictionary() -> FaultDictionary:
    faults = _every_fault_model()
    return FaultDictionary(
        signatures=(b"\x00\x01\x00", b"\x01\x01\x00", b"\x01\x00\x01"),
        classes=(faults[:1], faults[1:4], faults[4:]),
        num_vectors=3,
        criterion="reference",
    )


def golden_results() -> dict:
    """The six deterministic results, keyed by their fixture name."""
    matrix = np.array(
        [
            [1, 0, 0, 1, 1],
            [0, 0, 0, 0, 0],
            [1, 1, 0, 1, 0],
        ],
        dtype=bool,
    )
    return {
        "execution": _execution(),
        "verification": VerificationResult(
            verdict=True,
            property_name="selector",
            strategy="testset",
            k=2,
            n_lines=5,
            execution=_execution(),
        ),
        "test-set": TestSetResult(
            passed=False, vectors_used=26, n_lines=5, execution=_execution()
        ),
        "fault-matrix": FaultMatrixResult(
            matrix=matrix,
            criterion="specification",
            num_faults=3,
            num_vectors=5,
            stats=_stats(),
            execution=_execution(),
        ),
        "coverage": _coverage(),
        "diagnosis": DiagnosisResult(
            dictionary=_dictionary(),
            resolution=_resolution(),
            test_order=(2, 0, 1),
            coverage=_coverage(),
            criterion="reference",
            num_faults=7,
            num_vectors=3,
            stats=_stats(),
            execution=_execution(0.75),
        ),
    }


def test_dictionary_holds_every_registered_fault_model():
    models = {
        type(fault).__name__
        for members in _dictionary().classes
        for fault in members
    }
    assert models == set(fault_model_names())


@pytest.mark.parametrize("name", sorted(golden_results()))
def test_wire_text_matches_the_committed_golden(name):
    result = golden_results()[name]
    path = WIRE_DIR / f"{name}.json"
    golden = path.read_text(encoding="utf-8").removesuffix("\n")
    text = result.to_json()
    assert text == golden
    assert type(result).from_json(golden).to_json() == golden
