"""Public-API surface snapshot and the free-function contract.

Two guarantees: (a) the shape of the :mod:`repro.api` facade — exported
names, Session signature, result-object fields, registered fault models —
is pinned so accidental surface changes fail loudly, and (b) the Session is
the only execution surface: no free function takes the execution
keywords (``engine`` / ``config`` / ``prune`` / ``arena`` / ``cache``),
and plain calls stay silent.
"""

from __future__ import annotations

from dataclasses import fields
import inspect
import warnings

import numpy as np
import pytest

import repro.api as api
from repro.api import registry
from repro.core.evaluation import (
    EVALUATION_ENGINES,
    apply_network_to_batch,
    evaluate_on_all_binary_inputs,
)
from repro.exceptions import EngineError, NotBinaryError
from repro.faults import (
    build_fault_dictionary,
    compare_test_sets,
    coverage_report,
    detected_faults,
    enumerate_single_faults,
    fault_coverage,
    fault_detection_any,
    fault_detection_matrix,
    greedy_test_selection,
    undetected_faults,
)
from repro.properties import (
    find_merging_counterexample,
    find_selection_counterexample,
    find_sorting_counterexample,
    is_merger,
    is_selector,
    is_sorter,
)
from repro.testsets import network_passes_test_set, sorting_binary_test_set


# ----------------------------------------------------------------------
# Surface snapshot
# ----------------------------------------------------------------------
class TestApiSurface:
    def test_api_exports(self):
        assert sorted(api.__all__) == [
            "CacheStats",
            "CoverageReport",
            "DiagnosisResult",
            "ExecutionInfo",
            "FaultMatrixResult",
            "PROPERTIES",
            "ResultCache",
            "Session",
            "TestSetResult",
            "VerificationResult",
            "registry",
        ]

    def test_session_constructor_signature(self):
        params = inspect.signature(api.Session).parameters
        assert list(params) == [
            "engine", "workers", "chunk_size", "prune", "cache",
        ]
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY for p in params.values()
        )
        defaults = {name: p.default for name, p in params.items()}
        assert defaults == {
            "engine": None,
            "workers": 1,
            "chunk_size": None,
            "prune": True,
            "cache": None,
        }

    @pytest.mark.parametrize(
        "method,expected",
        [
            ("verify", ["network", "prop", "k", "strategy"]),
            ("passes_test_set", ["network", "test_words"]),
            ("fault_matrix", ["network", "faults", "test_vectors", "criterion"]),
            ("fault_coverage", ["network", "faults", "test_vectors", "criterion"]),
            ("compare_test_sets", ["network", "faults", "test_sets", "criterion"]),
            ("diagnose", ["network", "faults", "test_vectors", "criterion"]),
        ],
    )
    def test_workload_method_signatures(self, method, expected):
        params = inspect.signature(getattr(api.Session, method)).parameters
        assert [name for name in params if name != "self"] == expected

    @pytest.mark.parametrize(
        "cls,expected",
        [
            (
                api.ExecutionInfo,
                [
                    "engine_requested",
                    "engine_effective",
                    "workers",
                    "chunk_words",
                    "grid_shape",
                    "seconds",
                    "cache",
                    "trace",
                ],
            ),
            (
                api.VerificationResult,
                ["verdict", "property_name", "strategy", "k", "n_lines", "execution"],
            ),
            (
                api.TestSetResult,
                ["passed", "vectors_used", "n_lines", "execution"],
            ),
            (
                api.FaultMatrixResult,
                [
                    "matrix",
                    "criterion",
                    "num_faults",
                    "num_vectors",
                    "stats",
                    "execution",
                ],
            ),
            (
                api.CoverageReport,
                [
                    "total_faults",
                    "detected_faults",
                    "coverage",
                    "by_kind",
                    "vectors_used",
                    "criterion",
                    "stats",
                    "execution",
                    "resolution",
                ],
            ),
            (
                api.DiagnosisResult,
                [
                    "dictionary",
                    "resolution",
                    "test_order",
                    "coverage",
                    "criterion",
                    "num_faults",
                    "num_vectors",
                    "stats",
                    "execution",
                ],
            ),
        ],
    )
    def test_result_dataclass_fields(self, cls, expected):
        assert [f.name for f in fields(cls)] == expected

    def test_builtin_fault_models_are_registered(self):
        assert set(registry.fault_model_names()) >= {
            "StuckPassFault",
            "StuckSwapFault",
            "ReversedComparatorFault",
            "LineStuckFault",
        }


# ----------------------------------------------------------------------
# Engine names
# ----------------------------------------------------------------------
class TestEngineNames:
    def test_unknown_engine_message_lists_choices(self, four_sorter):
        with pytest.raises(EngineError, match="bitpacked"):
            apply_network_to_batch(
                four_sorter, np.zeros((1, 4), dtype=np.int8), engine="nope"
            )

    def test_session_takes_no_pin_or_one_of_the_three_engines(self):
        for engine in (None, *EVALUATION_ENGINES):
            assert api.Session(engine=engine).engine == engine
        for bad in ("nope", "", "Bitpacked", "registered-plugin"):
            with pytest.raises(EngineError):
                api.Session(engine=bad)


# ----------------------------------------------------------------------
# Free functions: domain arguments only
# ----------------------------------------------------------------------
FREE_FUNCTIONS = (
    is_sorter,
    is_selector,
    is_merger,
    network_passes_test_set,
    fault_detection_matrix,
    fault_detection_any,
    fault_coverage,
    coverage_report,
    compare_test_sets,
    find_sorting_counterexample,
    find_selection_counterexample,
    find_merging_counterexample,
    greedy_test_selection,
    detected_faults,
    undetected_faults,
    build_fault_dictionary,
    evaluate_on_all_binary_inputs,
)


class TestFreeFunctions:
    @pytest.mark.parametrize(
        "func", FREE_FUNCTIONS, ids=lambda func: func.__name__
    )
    def test_takes_no_execution_keywords(self, func):
        params = inspect.signature(func).parameters
        assert not {"engine", "config", "prune", "arena", "cache"} & set(params)

    def test_plain_calls_do_not_warn(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        vectors = sorting_binary_test_set(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert is_sorter(four_sorter)
            assert network_passes_test_set(four_sorter, vectors)
            fault_detection_matrix(four_sorter, faults, vectors)
            coverage_report(four_sorter, faults, vectors)

    def test_session_does_not_warn(self, four_sorter):
        faults = enumerate_single_faults(four_sorter)
        vectors = sorting_binary_test_set(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with api.Session(engine="bitpacked") as session:
                assert session.verify(four_sorter, "sorter").verdict
                session.fault_coverage(four_sorter, faults, vectors)


# ----------------------------------------------------------------------
# Engine routing: no pin routes by value domain, a pin never downgrades
# ----------------------------------------------------------------------
class TestEngineRouting:
    def test_bitpacked_pin_refuses_permutation_words(self, four_sorter):
        permutations = [(3, 1, 0, 2), (0, 2, 1, 3)]
        with api.Session(engine="bitpacked") as session:
            with pytest.raises(NotBinaryError):
                session.passes_test_set(four_sorter, permutations)
            # NotBinaryError is the EngineError of the packer.
            with pytest.raises(EngineError):
                session.passes_test_set(four_sorter, permutations)
        with api.Session() as session:
            routed = session.passes_test_set(four_sorter, permutations)
        assert routed.execution.engine_requested is None
        assert routed.execution.engine_effective == "vectorized"

    def test_binary_words_run_on_the_bitpacked_pin(self, four_sorter):
        with api.Session(engine="bitpacked") as session:
            result = session.passes_test_set(
                four_sorter, sorting_binary_test_set(4)
            )
        assert result.execution.engine_requested == "bitpacked"
        assert result.execution.engine_effective == "bitpacked"

    def test_bitpacked_pin_refuses_permutation_strategy(self, four_sorter):
        with api.Session(engine="bitpacked") as session:
            with pytest.raises(EngineError, match="0/1"):
                session.verify(four_sorter, "sorter", strategy="permutation")
        with api.Session() as session:
            result = session.verify(
                four_sorter, "sorter", strategy="permutation"
            )
        assert result.verdict
        assert result.execution.engine_effective == "vectorized"
