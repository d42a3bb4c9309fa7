"""Hypothesis round trips for the :mod:`repro.api` wire format.

Every result dataclass (and :class:`~repro.api.ExecutionInfo`) must
survive ``to_json`` → ``from_json`` → ``to_json`` *bit-identically* —
the serialised text is the dedup / replay currency of :mod:`repro.serve`,
so "almost equal" is a wire-protocol bug.  The strategies below generate
synthetic results (random fault zoos including composites, random
bit-packed matrices, random counters and span trees) rather than running
sessions, so the property is exercised far outside what live runs
produce; a session-driven integration round trip pins the realistic
shape too.
"""

from __future__ import annotations

import base64
import dataclasses
import itertools
import json

from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest

from repro.api import Session
from repro.api.results import (
    CoverageReport,
    DiagnosisResult,
    ExecutionInfo,
    FaultMatrixResult,
    TestSetResult,
    VerificationResult,
)
from repro.api.serialize import (
    fault_from_dict,
    fault_to_dict,
    matrix_from_dict,
    matrix_to_dict,
    result_from_dict,
)
from repro.cache.store import CacheStats
from repro.constructions import batcher_sorting_network
from repro.exceptions import SerializationError
from repro.faults.diagnosis import DiagnosticResolution, FaultDictionary
from repro.faults.injection import enumerate_single_faults
from repro.faults.models import (
    BridgingFault,
    IntermittentFault,
    LineStuckFault,
    MultiFault,
    ReversedComparatorFault,
    StuckPassFault,
    StuckSwapFault,
)
from repro.faults.simulation import CubeVectors, SimulationStats
from repro.observe import Trace

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_COMPARATOR_FAULTS = (StuckPassFault, StuckSwapFault, ReversedComparatorFault)

leaf_faults = st.one_of(
    st.builds(StuckPassFault, st.integers(0, 40)),
    st.builds(StuckSwapFault, st.integers(0, 40)),
    st.builds(ReversedComparatorFault, st.integers(0, 40)),
    st.builds(
        LineStuckFault,
        line=st.integers(0, 15),
        value=st.integers(0, 1),
        stage=st.integers(0, 12),
    ),
    st.builds(
        lambda low, coupling: BridgingFault(low, low + 1, coupling),
        st.integers(0, 14),
        st.sampled_from(("and", "or")),
    ),
)

intermittent_faults = st.builds(
    IntermittentFault,
    base=st.one_of(
        st.builds(StuckPassFault, st.integers(0, 40)),
        st.builds(
            LineStuckFault, line=st.integers(0, 15), value=st.integers(0, 1)
        ),
    ),
    salt=st.integers(1, 255),
)


@st.composite
def multi_faults(draw):
    """A conflict-free :class:`MultiFault` over distinct comparators."""
    indices = draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True)
    )
    classes = draw(
        st.lists(
            st.sampled_from(_COMPARATOR_FAULTS),
            min_size=len(indices),
            max_size=len(indices),
        )
    )
    return MultiFault(
        tuple(cls(index) for cls, index in zip(classes, indices))
    )


any_fault = st.one_of(leaf_faults, intermittent_faults, multi_faults())

bool_matrices = hnp.arrays(
    dtype=bool,
    shape=st.tuples(st.integers(1, 9), st.integers(1, 17)),
)

cache_stats = st.builds(
    CacheStats,
    **{
        field.name: st.integers(0, 10_000)
        for field in dataclasses.fields(CacheStats)
    },
)

sim_stats = st.builds(
    SimulationStats,
    faults=st.integers(0, 10_000),
    converged_faults=st.integers(0, 10_000),
    dropped_faults=st.integers(0, 10_000),
    evaluated_stage_blocks=st.integers(0, 10_000),
    pruned_stage_blocks=st.integers(0, 10_000),
    planned_grid=st.one_of(
        st.none(), st.tuples(st.integers(1, 64), st.integers(1, 64))
    ),
)

_span_names = st.sampled_from(
    ("serve.job", "verify", "fault_matrix", "chunk", "shard")
)


@st.composite
def traces(draw):
    """A small span tree built through the real :class:`Trace` API."""
    trace = Trace()
    with trace.span(draw(_span_names), kind="test") as root:
        root.add_counters({"faults": draw(st.integers(0, 99))})
        for _ in range(draw(st.integers(0, 3))):
            with trace.span(draw(_span_names)):
                pass
    return trace


executions = st.builds(
    ExecutionInfo,
    engine_requested=st.sampled_from(("scalar", "vectorized", "bitpacked")),
    engine_effective=st.sampled_from(("scalar", "vectorized", "bitpacked")),
    workers=st.integers(1, 16),
    chunk_words=st.one_of(st.none(), st.integers(1, 1 << 20)),
    grid_shape=st.one_of(
        st.none(), st.tuples(st.integers(1, 64), st.integers(1, 64))
    ),
    seconds=st.floats(0, 1e6, allow_nan=False),
    cache=st.one_of(st.none(), cache_stats),
    trace=st.one_of(st.none(), traces()),
)

resolutions = st.builds(
    DiagnosticResolution,
    num_faults=st.integers(0, 500),
    num_classes=st.integers(0, 500),
    singleton_classes=st.integers(0, 500),
    max_class_size=st.integers(0, 500),
    undetected_faults=st.integers(0, 500),
    resolution=st.floats(0, 1, allow_nan=False),
)

verifications = st.builds(
    VerificationResult,
    verdict=st.booleans(),
    property_name=st.sampled_from(("sorter", "selector", "merger")),
    strategy=st.sampled_from(("testset", "zero-one")),
    k=st.one_of(st.none(), st.integers(1, 16)),
    n_lines=st.integers(1, 32),
    execution=executions,
)

test_set_results = st.builds(
    TestSetResult,
    passed=st.booleans(),
    vectors_used=st.integers(0, 1 << 24),
    n_lines=st.integers(1, 32),
    execution=executions,
)

matrix_results = st.builds(
    lambda matrix, criterion, stats, execution: FaultMatrixResult(
        matrix=matrix,
        criterion=criterion,
        num_faults=matrix.shape[0],
        num_vectors=matrix.shape[1],
        stats=stats,
        execution=execution,
    ),
    bool_matrices,
    st.sampled_from(("specification", "reference")),
    sim_stats,
    executions,
)

by_kinds = st.dictionaries(
    st.sampled_from(
        ("StuckPassFault", "StuckSwapFault", "BridgingFault", "MultiFault")
    ),
    st.tuples(st.integers(0, 99), st.integers(0, 99)),
    max_size=4,
)

coverage_reports = st.builds(
    CoverageReport,
    total_faults=st.integers(0, 2000),
    detected_faults=st.integers(0, 2000),
    coverage=st.floats(0, 1, allow_nan=False),
    by_kind=by_kinds,
    vectors_used=st.integers(0, 1 << 24),
    criterion=st.sampled_from(("specification", "reference")),
    stats=sim_stats,
    execution=executions,
    resolution=st.one_of(st.none(), resolutions),
)


@st.composite
def dictionaries(draw):
    """A :class:`FaultDictionary` with random signatures and classes."""
    classes = draw(
        st.lists(
            st.lists(any_fault, min_size=1, max_size=3).map(tuple),
            min_size=1,
            max_size=4,
        ).map(tuple)
    )
    signatures = tuple(
        draw(st.binary(min_size=1, max_size=8)) for _ in classes
    )
    return FaultDictionary(
        signatures=signatures,
        classes=classes,
        num_vectors=draw(st.integers(1, 1 << 16)),
        criterion=draw(st.sampled_from(("specification", "reference"))),
    )


diagnosis_results = st.builds(
    DiagnosisResult,
    dictionary=dictionaries(),
    resolution=resolutions,
    test_order=st.lists(st.integers(0, 1 << 16), max_size=8).map(tuple),
    coverage=coverage_reports,
    criterion=st.sampled_from(("specification", "reference")),
    num_faults=st.integers(0, 2000),
    num_vectors=st.integers(0, 1 << 16),
    stats=sim_stats,
    execution=executions,
)


# ----------------------------------------------------------------------
# The round-trip property, per type
# ----------------------------------------------------------------------
def assert_bit_stable(result):
    """``to_json`` → ``from_json`` → ``to_json`` is the identity on text."""
    text = result.to_json()
    rebuilt = type(result).from_json(text)
    assert rebuilt.to_json() == text
    return rebuilt


@given(executions)
def test_execution_info_round_trip(info):
    rebuilt = assert_bit_stable(info)
    assert rebuilt.engine_requested == info.engine_requested
    assert rebuilt.grid_shape == info.grid_shape
    assert rebuilt.seconds == info.seconds
    assert rebuilt.cache == info.cache
    if info.trace is None:
        assert rebuilt.trace is None
    else:
        assert rebuilt.trace.to_json() == info.trace.to_json()


@given(verifications)
def test_verification_round_trip(result):
    rebuilt = assert_bit_stable(result)
    assert rebuilt.verdict == result.verdict
    assert rebuilt.k == result.k
    assert bool(rebuilt) == bool(result)


@given(test_set_results)
def test_test_set_round_trip(result):
    rebuilt = assert_bit_stable(result)
    assert rebuilt.passed == result.passed
    assert rebuilt.vectors_used == result.vectors_used


@settings(deadline=None)
@given(matrix_results)
def test_fault_matrix_round_trip(result):
    rebuilt = assert_bit_stable(result)
    assert np.array_equal(rebuilt.matrix, result.matrix)
    assert rebuilt.matrix.dtype == np.dtype(bool)
    assert rebuilt.stats == result.stats
    assert rebuilt.stats.planned_grid == result.stats.planned_grid


@given(coverage_reports)
def test_coverage_round_trip(result):
    rebuilt = assert_bit_stable(result)
    assert dict(rebuilt.by_kind) == dict(result.by_kind)
    assert rebuilt.resolution == result.resolution
    assert rebuilt.coverage == result.coverage


@settings(deadline=None)
@given(diagnosis_results)
def test_diagnosis_round_trip(result):
    rebuilt = assert_bit_stable(result)
    assert rebuilt.dictionary.signatures == result.dictionary.signatures
    assert rebuilt.dictionary.classes == result.dictionary.classes
    assert rebuilt.test_order == result.test_order


@given(any_fault)
def test_fault_round_trip(fault):
    payload = fault_to_dict(fault)
    assert fault_from_dict(payload) == fault


@settings(deadline=None)
@given(bool_matrices)
def test_matrix_packing_is_bit_exact(matrix):
    rebuilt = matrix_from_dict(matrix_to_dict(matrix))
    assert rebuilt.shape == matrix.shape
    assert np.array_equal(rebuilt, matrix)


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def test_wrong_type_tag_is_refused():
    info = ExecutionInfo(
        engine_requested="scalar",
        engine_effective="scalar",
        workers=1,
        chunk_words=None,
        grid_shape=None,
        seconds=0.0,
    )
    result = TestSetResult(
        passed=True, vectors_used=4, n_lines=2, execution=info
    )
    with pytest.raises(SerializationError):
        VerificationResult.from_json(result.to_json())


def test_unknown_payload_type_is_refused():
    with pytest.raises(SerializationError):
        result_from_dict({"type": "no-such-result"})


def test_unknown_fault_model_is_refused():
    with pytest.raises(SerializationError):
        fault_from_dict({"model": "NoSuchFault", "fields": {}})


# ----------------------------------------------------------------------
# Session integration: live payloads round-trip too
# ----------------------------------------------------------------------
def test_session_results_round_trip():
    network = batcher_sorting_network(6)
    session = Session(engine="bitpacked", cache=True)
    faults = enumerate_single_faults(network)
    vectors = CubeVectors(6)
    words = [list(w) for w in itertools.product((0, 1), repeat=6)]

    results = [
        session.verify(network),
        session.passes_test_set(network, words),
        session.fault_matrix(network, faults, vectors),
        session.fault_coverage(network, faults, vectors),
        session.diagnose(network, faults, vectors),
    ]
    for result in results:
        rebuilt = assert_bit_stable(result)
        assert rebuilt.execution.engine_effective == "bitpacked"
    matrix_result = results[2]
    rebuilt_matrix = FaultMatrixResult.from_json(matrix_result.to_json())
    assert np.array_equal(rebuilt_matrix.matrix, matrix_result.matrix)


# ----------------------------------------------------------------------
# The decoders' error contract: a value or SerializationError, nothing else
# ----------------------------------------------------------------------
RESULT_CLASSES = (
    ExecutionInfo,
    VerificationResult,
    TestSetResult,
    FaultMatrixResult,
    CoverageReport,
    DiagnosisResult,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

valid_payloads = st.one_of(
    st.one_of(
        executions,
        verifications,
        test_set_results,
        matrix_results,
        coverage_reports,
        diagnosis_results,
    ).map(lambda result: result.to_dict()),
    any_fault.map(fault_to_dict),
    bool_matrices.map(matrix_to_dict),
)


@st.composite
def mutated_payloads(draw):
    """A valid payload with one member deleted, retyped or added."""
    payload = json.loads(json.dumps(draw(valid_payloads)))
    containers = []

    def walk(node):
        if isinstance(node, (dict, list)):
            containers.append(node)
            for child in node.values() if isinstance(node, dict) else node:
                walk(child)

    walk(payload)
    node = draw(st.sampled_from(containers))
    action = draw(st.sampled_from(("delete", "retype", "add")))
    if action == "add" or not node:
        if isinstance(node, dict):
            node[draw(st.text(max_size=8))] = draw(json_values)
        else:
            node.append(draw(json_values))
        return payload
    slot = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else
                                range(len(node))))
    if action == "delete":
        del node[slot]
    else:
        node[slot] = draw(json_values)
    return payload


def assert_value_or_refused(payload):
    """Every decoder returns a value or raises SerializationError."""
    decoders = [result_from_dict, fault_from_dict, matrix_from_dict]
    decoders += [cls.from_dict for cls in RESULT_CLASSES]
    for decode in decoders:
        try:
            decoded = decode(payload)
        except SerializationError:
            continue
        if decode is matrix_from_dict:  # the bits fill the shape exactly
            assert list(decoded.shape) == payload["shape"]
            assert len(base64.b64decode(payload["bits"])) == (decoded.size + 7) // 8
    text = json.dumps(payload)
    for cls in RESULT_CLASSES:
        try:
            cls.from_json(text)
        except SerializationError:
            pass


@settings(deadline=None)
@given(json_values)
def test_decoders_refuse_arbitrary_json_with_serialization_error(value):
    assert_value_or_refused(value)


@settings(deadline=None, max_examples=300)
@given(mutated_payloads())
def test_decoders_refuse_mutated_payloads_with_serialization_error(payload):
    assert_value_or_refused(payload)


def test_matrix_bits_must_fill_the_shape():
    with pytest.raises(SerializationError):
        matrix_from_dict({"shape": [4, 4], "bits": ""})
    with pytest.raises(SerializationError):  # one byte too many
        matrix_from_dict({"shape": [1, 8], "bits": "AAA="})
    with pytest.raises(SerializationError):
        matrix_from_dict({"shape": [1, 8], "bits": "not base64!"})
    assert matrix_from_dict({"shape": [1, 8], "bits": "gA=="})[0, 0]


def test_from_json_refuses_text_that_is_not_json():
    with pytest.raises(SerializationError):
        VerificationResult.from_json("{not json")
