"""The routing contract: with no engine pin, the value domain picks the kernel.

An unpinned :class:`repro.api.Session` runs 0/1 work — the ``binary`` /
``testset`` strategies, 0/1 word lists and arrays (empty ones included),
:class:`~repro.faults.CubeVectors` — on the bit-packed engine and
everything else on the vectorised one, reports that engine as
``engine_effective`` (with ``engine_requested`` ``None``), and returns
exactly what ``Session(engine="vectorized")`` returns.  A bit-packed pin
never swaps engines: permutation input raises
:class:`~repro.exceptions.EngineError` from every workload method.  The
CLI prints the engine that ran.  The free functions with no Session
method (the counterexample searches, greedy selection, the detected /
undetected fault lists, the fault dictionary and the cube evaluation)
route the same way and give the vectorised oracle's answers.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from strategies import networks, vectorized_first_failure

from repro.api import Session
from repro.cli import main
from repro.constructions import batcher_sorting_network
from repro.core import ComparatorNetwork
from repro.core.evaluation import (
    all_binary_words_array,
    apply_network_to_batch,
    batch_is_sorted,
    evaluate_on_all_binary_inputs,
    unsorted_binary_words_array,
)
from repro.exceptions import EngineError, NotBinaryError
from repro.faults import (
    CubeVectors,
    StuckSwapFault,
    build_fault_dictionary,
    detected_faults,
    enumerate_single_faults,
    fault_coverage,
    greedy_test_selection,
    undetected_faults,
)
from repro.properties import (
    all_sorted_half_pairs,
    find_merging_counterexample,
    find_selection_counterexample,
    find_sorting_counterexample,
)
from repro.testsets import network_passes_test_set, sorting_binary_test_set
from repro.words.permutations import all_permutations

#: Small networks, the one-line network included.
small_networks = st.one_of(
    networks(max_lines=5, max_size=8), st.just(ComparatorNetwork.identity(1))
)

STRATEGIES = ("binary", "testset", "permutation", "permutation-testset")


def vector_sources(n: int) -> dict[str, tuple[object, bool]]:
    """``name -> (test vectors, is 0/1)`` for an ``n``-line network."""
    fractional = np.linspace(0.25, 0.75, n)[None, :].repeat(2, axis=0)
    fractional[1] = fractional[1, ::-1]
    return {
        "binary-list": (sorting_binary_test_set(n), True),
        "theorem-array": (unsorted_binary_words_array(n), True),
        "cube": (CubeVectors(n), True),
        "empty-list": ([], True),
        # Permutations of 0..n-1 are 0/1 words only for n <= 2.
        "permutations": (list(all_permutations(n))[:24], n <= 2),
        "fractional-array": (fractional, False),
    }


def expected_engine(binary: bool) -> str:
    return "bitpacked" if binary else "vectorized"


def assert_routed(execution, binary: bool) -> None:
    assert execution.engine_requested is None
    assert execution.engine_effective == expected_engine(binary)


def coverage_fields(report) -> tuple:
    return (
        report.total_faults,
        report.detected_faults,
        report.coverage,
        dict(report.by_kind),
        report.vectors_used,
    )


@given(small_networks)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_unpinned_verify_routes_by_strategy(network):
    n = network.n_lines
    checks = [("sorter", 1), ("selector", min(2, n))]
    if n % 2 == 0:
        checks.append(("merger", 1))
    with Session() as routed, Session(engine="vectorized") as reference:
        for prop, k in checks:
            for strategy in STRATEGIES:
                result = routed.verify(network, prop, k=k, strategy=strategy)
                oracle = reference.verify(network, prop, k=k, strategy=strategy)
                assert result.verdict is oracle.verdict, (prop, strategy)
                assert_routed(
                    result.execution, strategy in ("binary", "testset")
                )


@given(small_networks)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_unpinned_vector_workloads_route_by_their_vectors(network):
    faults = enumerate_single_faults(network)
    with Session() as routed, Session(engine="vectorized") as reference:
        for name, (vectors, binary) in vector_sources(network.n_lines).items():
            if not isinstance(vectors, CubeVectors):
                result = routed.passes_test_set(network, vectors)
                oracle = reference.passes_test_set(network, vectors)
                assert result.passed is oracle.passed, name
                assert result.vectors_used == oracle.vectors_used
                # A fractional float array is truncated by the test-set
                # path, but it is routed as given: not 0/1.
                assert_routed(result.execution, binary)

            matrix = routed.fault_matrix(network, faults, vectors)
            assert np.array_equal(
                matrix.matrix,
                reference.fault_matrix(network, faults, vectors).matrix,
            ), name
            assert_routed(matrix.execution, binary)

            coverage = routed.fault_coverage(network, faults, vectors)
            assert coverage_fields(coverage) == coverage_fields(
                reference.fault_coverage(network, faults, vectors)
            ), name
            assert_routed(coverage.execution, binary)

            diagnosis = routed.diagnose(network, faults, vectors)
            oracle = reference.diagnose(network, faults, vectors)
            assert diagnosis.dictionary.signatures == oracle.dictionary.signatures
            assert diagnosis.dictionary.classes == oracle.dictionary.classes
            assert diagnosis.test_order == oracle.test_order, name
            assert_routed(diagnosis.execution, binary)


#: A device whose evaluation is its fault model's override of the
#: packed and unpacked kernels, not its comparator list.
swapped_sorter = StuckSwapFault(index=0).apply_to(batcher_sorting_network(4))


def vectorized_outputs(network, words) -> np.ndarray:
    return apply_network_to_batch(network, np.asarray(words), engine="vectorized")


def first_failure(words, ok: np.ndarray):
    """The first row of *words* whose verdict in *ok* is ``False``."""
    failing = np.flatnonzero(~ok)
    return tuple(int(v) for v in words[failing[0]]) if failing.size else None


def greedy_oracle(matrix: np.ndarray, vectors) -> list[tuple[int, ...]]:
    """Greedy set cover of every detectable fault, over a given matrix."""
    covered = np.zeros(matrix.shape[0], dtype=bool)
    needed = int(matrix.any(axis=1).sum())
    chosen: list[int] = []
    while int(covered.sum()) < needed:
        gains = np.sum(matrix & ~covered[:, None], axis=0)
        gains[chosen] = -1
        chosen.append(int(np.argmax(gains)))
        covered |= matrix[:, chosen[-1]]
    return [vectors[i] for i in chosen]


@given(small_networks)
@example(swapped_sorter)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_free_functions_give_the_vectorized_answers(network):
    n = network.n_lines
    cube = all_binary_words_array(n)
    outputs = vectorized_outputs(network, cube)
    assert np.array_equal(evaluate_on_all_binary_inputs(network), outputs)
    # Each search returns its first failing word in the order it searches:
    # cube rank order over Theorem 2.2's words, over the whole cube for
    # selection, and the candidates' own order otherwise.
    assert find_sorting_counterexample(network) == vectorized_first_failure(
        network, "testset"
    )
    permutations = np.asarray(list(all_permutations(n))[:24])
    assert find_sorting_counterexample(
        network, candidates=permutations.tolist()
    ) == first_failure(
        permutations, batch_is_sorted(vectorized_outputs(network, permutations))
    )
    smallest = np.sort(cube, axis=1)
    for k in range(1, n + 1):
        selected = np.all(outputs[:, :k] == smallest[:, :k], axis=1)
        assert find_selection_counterexample(network, k) == first_failure(
            cube, selected
        ), k
    if n % 2 == 0:
        pairs = np.asarray(all_sorted_half_pairs(n))
        assert find_merging_counterexample(network) == first_failure(
            pairs, batch_is_sorted(vectorized_outputs(network, pairs))
        )
    faults = enumerate_single_faults(network)
    with Session(engine="vectorized") as oracle:
        for name, (vectors, _) in vector_sources(n).items():
            hits = oracle.fault_matrix(network, faults, vectors).matrix.any(axis=1)
            assert detected_faults(network, faults, vectors) == [
                fault for fault, hit in zip(faults, hits) if hit
            ], name
            assert undetected_faults(network, faults, vectors) == [
                fault for fault, hit in zip(faults, hits) if not hit
            ], name
            expected = oracle.diagnose(network, faults, vectors).dictionary
            dictionary = build_fault_dictionary(network, faults, vectors)
            assert dictionary.signatures == expected.signatures, name
            assert dictionary.classes == expected.classes, name
            if isinstance(vectors, CubeVectors):
                continue
            # Greedy selection applies the candidates with their values.
            words = [tuple(w) for w in np.asarray(vectors).tolist()]
            matrix = oracle.fault_matrix(network, faults, vectors).matrix
            assert greedy_test_selection(
                network, faults, vectors
            ) == greedy_oracle(matrix, words), name


#: One fractional word: truncated to int64 it reads as all zeros (sorted).
FRACTIONAL_WORD = np.array([[0.75, 0.5, 0.25, 0.0]])


def test_fractional_test_words_are_applied_as_given():
    identity = ComparatorNetwork.identity(4)
    assert network_passes_test_set(identity, FRACTIONAL_WORD) is False
    assert Session().passes_test_set(identity, FRACTIONAL_WORD).passed is False
    sorter = batcher_sorting_network(4)
    assert network_passes_test_set(sorter, FRACTIONAL_WORD) is True
    assert Session().passes_test_set(sorter, FRACTIONAL_WORD).passed is True
    with pytest.raises(EngineError):
        Session(engine="bitpacked").passes_test_set(identity, FRACTIONAL_WORD)


def test_greedy_selection_keeps_fractional_candidates():
    network = batcher_sorting_network(4)
    faults = enumerate_single_faults(network)
    words = np.vstack([FRACTIONAL_WORD, FRACTIONAL_WORD[:, ::-1]])
    selected = greedy_test_selection(network, faults, words)
    assert set(selected) <= set(map(tuple, words.tolist()))
    reached = fault_coverage(network, faults, np.array(selected))
    assert reached == fault_coverage(network, faults, words)
    assert reached == pytest.approx(16 / 23)


@pytest.mark.parametrize(
    "engine,refusal",
    [
        (None, None),
        ("vectorized", None),
        ("bitpacked", NotBinaryError),
        ("scalar", ValueError),
    ],
)
def test_fractional_word_lists_are_applied_as_given(engine, refusal):
    """A list of fractional float words is converted once with the array's
    dtype rule, pinned or not: the list and the array give the same
    answers, and an engine that cannot apply them refuses both instead of
    truncating them."""
    identity = ComparatorNetwork.identity(4)
    network = batcher_sorting_network(4)
    faults = enumerate_single_faults(network)
    words = np.vstack([FRACTIONAL_WORD, FRACTIONAL_WORD[:, ::-1]])
    as_list = [tuple(row) for row in words.tolist()]
    for given in (as_list, words):
        with Session(engine=engine) as session:
            if refusal is not None:
                with pytest.raises(refusal):
                    session.passes_test_set(identity, given[:1])
                with pytest.raises(refusal):
                    session.fault_coverage(network, faults, given)
                continue
            assert session.passes_test_set(identity, given[:1]).passed is False
            coverage = session.fault_coverage(network, faults, given).coverage
            assert coverage == pytest.approx(16 / 23)
    if engine is None:
        assert network_passes_test_set(identity, as_list[:1]) is False
        assert fault_coverage(network, faults, as_list) == pytest.approx(16 / 23)
        assert greedy_test_selection(network, faults, as_list) == (
            greedy_test_selection(network, faults, words)
        )


class TestBitpackedPinRefusesPermutations:
    """A bit-packed pin raises instead of running another engine."""

    network = batcher_sorting_network(4)
    permutations = ((3, 1, 0, 2), (0, 2, 1, 3), (1, 0, 3, 2))

    @pytest.mark.parametrize("strategy", ["permutation", "permutation-testset"])
    @pytest.mark.parametrize("prop", ["sorter", "selector", "merger"])
    def test_verify(self, prop, strategy):
        with Session(engine="bitpacked") as session, pytest.raises(EngineError):
            session.verify(self.network, prop, k=2, strategy=strategy)

    def test_passes_test_set(self):
        with Session(engine="bitpacked") as session, pytest.raises(EngineError):
            session.passes_test_set(self.network, self.permutations)

    @pytest.mark.parametrize("method", ["fault_matrix", "fault_coverage", "diagnose"])
    def test_fault_workloads(self, method):
        faults = enumerate_single_faults(self.network)
        with Session(engine="bitpacked") as session, pytest.raises(EngineError):
            getattr(session, method)(self.network, faults, self.permutations)

    def test_cached_and_streamed_sessions_refuse_too(self):
        for knobs in ({"cache": True}, {"chunk_size": 2}):
            with Session(engine="bitpacked", **knobs) as session:
                with pytest.raises(EngineError):
                    session.passes_test_set(self.network, self.permutations)

    def test_pins_report_themselves(self):
        for engine in ("scalar", "vectorized", "bitpacked"):
            with Session(engine=engine) as session:
                result = session.verify(self.network, "sorter")
            assert result.execution.engine_requested == engine
            assert result.execution.engine_effective == engine


class TestCliPrintsTheEngineThatRan:
    @pytest.mark.parametrize(
        "argv,engine",
        [
            (["--n", "12"], "bitpacked"),
            (["--n", "12", "--strategy", "permutation-testset"], "vectorized"),
            (["--n", "5", "--strategy", "permutation"], "vectorized"),
            (["--n", "12", "--engine", "vectorized"], "vectorized"),
        ],
    )
    def test_verify(self, capsys, argv, engine):
        assert main(["verify", "--construct", "batcher", *argv]) == 0
        assert f"engine={engine} " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["faults", "diagnose"])
    def test_fault_commands(self, capsys, command):
        assert main([command, "--n", "5"]) == 0
        assert "engine=bitpacked " in capsys.readouterr().out
