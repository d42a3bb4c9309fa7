"""Public-API surface snapshot and the free-function contract.

Two guarantees: (a) the shape of the :mod:`repro.api` facade — exported
names, Session signature, result-object fields, registry built-ins — is
pinned so accidental surface changes fail loudly, and (b) the Session is
the only execution surface: no free function takes the execution
keywords (``engine`` / ``config`` / ``prune`` / ``arena``), and plain
calls stay silent.
"""

from __future__ import annotations

from dataclasses import fields
import inspect
import warnings

import numpy as np
import pytest

import repro.api as api
from repro.api import registry
from repro.constructions import batcher_sorting_network
from repro.core.evaluation import (
    apply_network_to_batch,
    reset_engine_downgrade_warning,
)
from repro.exceptions import EngineDowngradeWarning, EngineError
from repro.faults import (
    compare_test_sets,
    coverage_report,
    enumerate_single_faults,
    fault_coverage,
    fault_detection_any,
    fault_detection_matrix,
)
from repro.properties import is_merger, is_selector, is_sorter
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
            "engine": "vectorized",
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

    def test_builtin_engines_are_registered(self):
        names = registry.engine_names()
        assert names[:3] == ("scalar", "vectorized", "bitpacked")
        for name in ("scalar", "vectorized", "bitpacked"):
            assert registry.get_engine(name).builtin

    def test_builtin_fault_models_are_registered(self):
        assert set(registry.fault_model_names()) >= {
            "StuckPassFault",
            "StuckSwapFault",
            "ReversedComparatorFault",
            "LineStuckFault",
        }


# ----------------------------------------------------------------------
# Engine registry behaviour
# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_register_dispatch_unregister(self, four_sorter):
        def doubled_vectorized(network, batch):
            return apply_network_to_batch(network, np.asarray(batch))

        registry.register_engine("test-plugin", doubled_vectorized)
        try:
            batch = np.array([[1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.int8)
            out = apply_network_to_batch(four_sorter, batch, engine="test-plugin")
            expected = apply_network_to_batch(four_sorter, batch)
            assert np.array_equal(out, expected)
            assert "test-plugin" in registry.engine_names()
        finally:
            registry.unregister_engine("test-plugin")
        assert "test-plugin" not in registry.engine_names()
        with pytest.raises(EngineError):
            apply_network_to_batch(four_sorter, batch, engine="test-plugin")

    def test_plugin_engine_drives_the_fault_simulator(self, four_sorter):
        calls = []

        def counting_vectorized(network, batch):
            calls.append(type(network).__name__)
            return apply_network_to_batch(network, np.asarray(batch))

        registry.register_engine("test-fault-plugin", counting_vectorized)
        try:
            faults = enumerate_single_faults(four_sorter)
            vectors = sorting_binary_test_set(4)
            with api.Session(engine="test-fault-plugin") as session:
                result = session.fault_matrix(four_sorter, faults, vectors)
            reference = fault_detection_matrix(four_sorter, faults, vectors)
            assert np.array_equal(result.matrix, reference)
            # The registered callable actually ran (once per faulty device).
            assert len(calls) >= len(faults)
        finally:
            registry.unregister_engine("test-fault-plugin")

    def test_builtins_cannot_be_replaced_or_removed(self):
        with pytest.raises(EngineError):
            registry.register_engine("bitpacked", lambda n, b: b, replace=True)
        with pytest.raises(EngineError):
            registry.unregister_engine("vectorized")

    def test_unknown_engine_message_lists_choices(self, four_sorter):
        with pytest.raises(EngineError, match="bitpacked"):
            apply_network_to_batch(
                four_sorter, np.zeros((1, 4), dtype=np.int8), engine="nope"
            )


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
)


class TestFreeFunctions:
    @pytest.mark.parametrize(
        "func", FREE_FUNCTIONS, ids=lambda func: func.__name__
    )
    def test_takes_no_execution_keywords(self, func):
        params = inspect.signature(func).parameters
        assert not {"engine", "config", "prune", "arena"} & set(params)

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
# Engine-downgrade surfacing
# ----------------------------------------------------------------------
class TestEngineDowngrade:
    def test_downgrade_warns_once_and_surfaces_on_result(self, four_sorter):
        permutations = [(3, 1, 0, 2), (0, 2, 1, 3)]
        reset_engine_downgrade_warning()
        with api.Session(engine="bitpacked") as session:
            with pytest.warns(EngineDowngradeWarning):
                result = session.passes_test_set(four_sorter, permutations)
            assert result.execution.engine_requested == "bitpacked"
            assert result.execution.engine_effective == "vectorized"
            assert result.execution.engine_downgraded
            # The warning is one-time per process; the field still reports.
            with warnings.catch_warnings():
                warnings.simplefilter("error", EngineDowngradeWarning)
                again = session.passes_test_set(four_sorter, permutations)
            assert again.execution.engine_downgraded

    def test_binary_words_do_not_downgrade(self, four_sorter):
        with api.Session(engine="bitpacked") as session:
            result = session.passes_test_set(
                four_sorter, sorting_binary_test_set(4)
            )
        assert result.execution.engine_effective == "bitpacked"
        assert not result.execution.engine_downgraded

    def test_permutation_strategy_downgrade_on_verify(self, four_sorter):
        reset_engine_downgrade_warning()
        with api.Session(engine="bitpacked") as session, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = session.verify(
                four_sorter, "sorter", strategy="permutation"
            )
        assert result.execution.engine_effective == "vectorized"
