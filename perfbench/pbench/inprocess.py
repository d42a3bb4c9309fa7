"""The three in-process workloads: one caller, one ``Session``, closed loop.

Each workload builds its inputs from the seed alone (``__init__``), opens
its Session and runs one warm-up op on an input outside the timed set
(:meth:`InProcessWorkload.open`), hands the runner whole rounds of ops
(``rounds``) and checks every output against an independent path
(:meth:`InProcessWorkload.check`).  Every Session runs ``workers=1``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
import itertools
from typing import Any

import numpy as np

from repro.api import Session
from repro.cache.keys import network_token
from repro.constructions import batcher_sorting_network, bose_nelson_sorting_network
from repro.core.bitpacked import (
    apply_network_packed,
    packed_all_binary_words,
    packed_is_sorted,
)
from repro.core.evaluation import apply_network_to_batch, unsorted_binary_words_array
from repro.core.random_networks import random_network, random_sorter_mutation
from repro.faults import (
    CubeVectors,
    adaptive_test_order,
    enumerate_model_faults,
    enumerate_single_faults,
    fault_dictionary_from_matrix,
)

from .runner import Op, Sample


def _rng(seed: int, stream: int) -> np.random.Generator:
    """The workload's own generator: one stream per (seed, workload)."""
    return np.random.default_rng([seed, stream])


def extended_single_faults(network) -> list:
    """The single-fault universe with line stuck-ats at every stage."""
    return enumerate_single_faults(network, line_stuck_at_input_only=False)


class InProcessWorkload:
    """Shared plumbing: a Session per timed phase and per-key output checks."""

    name = ""
    #: Ops of the first whole round; per-seed counters are summed over them.
    count_window = 0

    def __init__(self) -> None:
        self.session: Session | None = None

    def new_session(self) -> Session:
        """The Session the timed ops run on."""
        return Session(engine="bitpacked")

    def warm_up(self, session: Session) -> None:
        """One op on an input outside the timed set."""
        raise NotImplementedError

    def open(self) -> None:
        """Open a fresh Session and warm it up; its cache starts empty."""
        self.close()
        self.session = self.new_session()
        self.warm_up(self.session)
        if self.session.cache is not None:
            self.session.cache.clear()

    def close(self) -> None:
        """Close the Session (idempotent)."""
        if self.session is not None:
            self.session.close()
            self.session = None

    def rounds(self) -> Iterator[list[Op]]:
        """Whole rounds of ops for the timed loop."""
        raise NotImplementedError

    def expected(self, op: Op) -> Any:
        """The independent reference output of *op*."""
        raise NotImplementedError

    def matches(self, op: Op, output: Any, expected: Any) -> bool:
        """Does the program's *output* agree with the reference?"""
        raise NotImplementedError

    def check(self, samples: Sequence[Sample]) -> int:
        """Compare every completed op against its reference; return mismatches.

        The reference runs once per op key; a mismatching op is marked
        failed.
        """
        reference: dict[Any, Any] = {}
        wrong = 0
        for sample in samples:
            if sample.error is not None:
                continue
            key = sample.op.key
            if key not in reference:
                reference[key] = self.expected(sample.op)
            if not self.matches(sample.op, sample.output, reference[key]):
                sample.error = "output mismatch"
                wrong += 1
        return wrong

    def counters(self, output: Any) -> dict[str, int]:
        """Integer counters the op's result reports (summed per seed)."""
        stats = getattr(output, "stats", None)
        return stats.metrics.as_dict() if stats is not None else {}


def first_difference(a, b) -> int:
    """Index of the first comparator where networks *a* and *b* differ."""
    for index, (x, y) in enumerate(zip(a.comparators, b.comparators)):
        if x != y:
            return index
    return min(a.size, b.size)


def stratified_mutation(incumbent, rng: np.random.Generator, stratum: int,
                        strata: int):
    """A ``random_sorter_mutation`` mutant whose first changed comparator
    lies in the *stratum*-th of *strata* equal slices of *incumbent*.

    Rejection sampling keeps the mutation operators' own distribution while
    spreading mutation positions evenly over a run, so the suffix lengths a
    run re-simulates do not depend on the seed's luck.
    """
    low = stratum * incumbent.size // strata
    high = (stratum + 1) * incumbent.size // strata
    while True:
        mutant = random_sorter_mutation(incumbent, rng)
        if low <= first_difference(incumbent, mutant) < high:
            return mutant


class VerifyRetest(InProcessWorkload):
    """Mutate-and-re-verify against sorter incumbents, result cache on.

    A sub-round verifies one fresh single-mutation mutant of every
    incumbent, each followed by a re-verification of its incumbent.  In
    sub-round ``r`` the incumbent with index ``r % 4`` uses
    ``strategy="testset"`` (the Thm 2.2 set), the others ``"binary"``: one
    call in four.  A round is four sub-rounds, so every round has the same
    mix of op kinds; mutation positions cycle through eight slices of each
    incumbent every two rounds (:func:`stratified_mutation`).
    """

    name = "verify_retest"
    SUBROUNDS = 4
    ROUNDS = 40
    STRATA = 8

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = _rng(seed, 1)
        self.incumbents = [
            batcher_sorting_network(16),
            bose_nelson_sorting_network(18),
            batcher_sorting_network(20),
            bose_nelson_sorting_network(20),
        ]
        self.mutants = [
            [
                stratified_mutation(network, rng, (r + 3 * i) % self.STRATA,
                                    self.STRATA)
                for i, network in enumerate(self.incumbents)
            ]
            for r in range(self.ROUNDS * self.SUBROUNDS)
        ]
        self.warm_input = random_sorter_mutation(batcher_sorting_network(14), rng)
        self.count_window = self.SUBROUNDS * 2 * len(self.incumbents)
        self._cube: dict[int, tuple[Any, np.ndarray]] = {}

    def new_session(self) -> Session:
        return Session(engine="bitpacked", cache=True)

    def warm_up(self, session: Session) -> None:
        for strategy in ("binary", "testset"):
            session.verify(self.warm_input, strategy=strategy)

    def _op(self, label: str, network, strategy: str) -> Op:
        assert self.session is not None
        return Op(
            kind=f"{strategy}.n{network.n_lines}.{label}",
            key=(network_token(network), strategy),
            call=self.session.verify,
            args=(network,),
            kwargs={"strategy": strategy},
        )

    def rounds(self) -> Iterator[list[Op]]:
        for first in range(0, len(self.mutants), self.SUBROUNDS):
            ops: list[Op] = []
            for r in range(first, first + self.SUBROUNDS):
                for i, incumbent in enumerate(self.incumbents):
                    strategy = "testset" if i == r % len(self.incumbents) else "binary"
                    ops.append(self._op("mutant", self.mutants[r][i], strategy))
                    ops.append(self._op("incumbent", incumbent, strategy))
            yield ops

    def _packed_cube(self, n: int) -> tuple[Any, np.ndarray]:
        if n not in self._cube:
            cube = packed_all_binary_words(n)
            self._cube[n] = (cube, ~packed_is_sorted(cube))
        return self._cube[n]

    def expected(self, op: Op) -> bool:
        """The verdict, derived from the ``vectorized`` engine without cache.

        A non-sorter is settled by one failing input word evaluated with
        the vectorized engine (the word is located by an uncached packed
        sweep of the cube); every other case runs a full cache-off
        vectorized ``Session.verify``.
        """
        (network,), strategy = op.args, op.kwargs["strategy"]
        cube, unsorted_inputs = self._packed_cube(network.n_lines)
        failing = ~packed_is_sorted(apply_network_packed(network, cube))
        if strategy == "testset":
            failing &= unsorted_inputs
        hits = np.flatnonzero(failing)
        if hits.size:
            index = int(hits[0])
            bits = cube.planes[:, index // 64] >> np.uint64(index % 64)
            word = (bits & np.uint64(1)).astype(np.int8)[None, :]
            out = apply_network_to_batch(network, word, engine="vectorized")
            if np.any(np.diff(out[0].astype(np.int16)) < 0):
                return False
        with Session(engine="vectorized") as reference:
            return reference.verify(network, strategy=strategy).verdict

    def matches(self, op: Op, output: Any, expected: Any) -> bool:
        return bool(output.verdict) == bool(expected)

    def counters(self, output: Any) -> dict[str, int]:
        cache = output.execution.cache
        return cache.as_dict() if cache is not None else {}


class _FaultEnsemble(InProcessWorkload):
    """Fault ops drawn from a per-seed pool of device sets, no cache.

    A round runs one op of every kind; round ``r`` takes its devices from
    pool entry ``r % POOL``.  Kinds are fixed and the devices are seeded, so
    every run has the same mix while its devices average over the pool.
    Ops on fixed devices share one key across the pool.
    """

    POOL = 4

    def __init__(self) -> None:
        super().__init__()
        self.pool: list[list[tuple[str, Any, Any, list, Any]]] = [
            [] for _ in range(self.POOL)
        ]

    def _call(self, session: Session):
        raise NotImplementedError

    def rounds(self) -> Iterator[list[Op]]:
        assert self.session is not None
        call = self._call(self.session)
        entries = [
            [Op(kind, key, call, (network, faults, vectors))
             for kind, key, network, faults, vectors in ops]
            for ops in self.pool
        ]
        for r in itertools.count():
            yield entries[r % self.POOL]


def _balanced_choice(rng: np.random.Generator, pool: int) -> list[int]:
    """A seeded 0/1 pick per pool entry, half of each."""
    return [int(v) for v in rng.permutation([0, 1] * (pool // 2))]


class CoverageEnsemble(_FaultEnsemble):
    """Fault coverage of random networks and sorter mutants, no cache.

    For each n in 12, 14, 16 a pool entry holds one mutant of Batcher's
    sorter (mutation positions stratified over the pool) and one random
    network with 3n comparators; each runs the extended single-fault
    universe on the Thm 2.2 array.  A seeded half of the entries also run
    the mutant against the exhaustive cube (the other half the random
    network), and likewise for the bridging and intermittent universes.
    """

    name = "coverage_ensemble"

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = _rng(seed, 2)
        for n in (12, 14, 16):
            words = unsorted_binary_words_array(n)
            sorter = batcher_sorting_network(n)
            cube_pick = _balanced_choice(rng, self.POOL)
            model_pick = _balanced_choice(rng, self.POOL)
            for p, ops in enumerate(self.pool):
                devices = [
                    ("mutant", stratified_mutation(sorter, rng, p, self.POOL)),
                    ("random", random_network(n, 3 * n, rng)),
                ]
                for label, network in devices:
                    kind = f"single.thm22.n{n}.{label}"
                    ops.append((kind, (kind, p), network,
                                extended_single_faults(network), words))
                label, network = devices[cube_pick[p]]
                kind = f"single.cube.n{n}.{label}"
                ops.append((kind, (kind, p), network,
                            extended_single_faults(network), CubeVectors(n)))
                label, network = devices[model_pick[p]]
                for model in ("BridgingFault", "IntermittentFault"):
                    kind = f"{model}.thm22.n{n}.{label}"
                    ops.append((kind, (kind, p), network,
                                enumerate_model_faults(network, model), words))
        self.count_window = len(self.pool[0])
        warm = random_sorter_mutation(batcher_sorting_network(10), rng)
        self.warm_input = (warm, extended_single_faults(warm),
                           unsorted_binary_words_array(10))

    def warm_up(self, session: Session) -> None:
        session.fault_coverage(*self.warm_input)

    def _call(self, session: Session):
        return session.fault_coverage

    def expected(self, op: Op) -> Any:
        """The same coverage with dominated-state pruning off."""
        with Session(engine="bitpacked", prune=False) as reference:
            return reference.fault_coverage(*op.args)

    def matches(self, op: Op, output: Any, expected: Any) -> bool:
        return (
            (output.total_faults, output.detected_faults, output.coverage,
             dict(output.by_kind), output.vectors_used)
            == (expected.total_faults, expected.detected_faults,
                expected.coverage, dict(expected.by_kind), expected.vectors_used)
        )


class DiagnoseMultifault(_FaultEnsemble):
    """Fault dictionaries and adaptive orders on small devices, no cache.

    Fixed devices - Batcher's and Bose-Nelson's 6- and 7-line sorters -
    plus a pool of seeded random networks and sorter mutants at n = 5, 6
    and 8, with Thm 2.2 vectors throughout.  The canonical k = 2
    ``MultiFault`` universe runs on the 5- and 6-line devices, the extended
    single-fault universe on the 5- to 7-line ones, and the input-side
    single-fault universe on the 8-line ones, which keeps a round near two
    seconds.  The fixed devices bracket the median and make up the slowest
    fifth of the ops, so neither ``latency_p50_ms`` nor the tail depends on
    which random devices a seed drew.
    """

    name = "diagnose_multifault"

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = _rng(seed, 3)
        universes = {
            "MultiFault": lambda network: enumerate_model_faults(network, "MultiFault"),
            "extended": extended_single_faults,
            "input": enumerate_single_faults,
        }
        fixed = [
            ("bose_nelson", bose_nelson_sorting_network(7), "extended"),
            ("batcher", batcher_sorting_network(7), "extended"),
            ("batcher", batcher_sorting_network(6), "MultiFault"),
            ("bose_nelson", bose_nelson_sorting_network(6), "MultiFault"),
        ]
        fixed_ops = []
        for label, network, universe in fixed:
            n = network.n_lines
            kind = f"{universe}.n{n}.{label}"
            fixed_ops.append((kind, (kind,), network, universes[universe](network),
                              unsorted_binary_words_array(n)))
        for p, ops in enumerate(self.pool):
            def mutant(n: int):
                return stratified_mutation(batcher_sorting_network(n), rng, p,
                                           self.POOL)

            drawn = [
                ("mutant", mutant(5), "extended"),
                ("random", random_network(5, 10, rng), "MultiFault"),
                ("mutant", mutant(5), "MultiFault"),
                ("mutant", mutant(6), "extended"),
                ("random", random_network(8, 24, rng), "input"),
                ("mutant", mutant(8), "input"),
            ]
            for label, network, universe in drawn:
                n = network.n_lines
                kind = f"{universe}.n{n}.{label}"
                ops.append((kind, (kind, p), network, universes[universe](network),
                            unsorted_binary_words_array(n)))
            ops.extend(fixed_ops)
        self.count_window = len(self.pool[0])
        warm = random_sorter_mutation(batcher_sorting_network(5), rng)
        self.warm_input = (warm, extended_single_faults(warm),
                           unsorted_binary_words_array(5))

    def warm_up(self, session: Session) -> None:
        session.diagnose(*self.warm_input)

    def _call(self, session: Session):
        return session.diagnose

    def expected(self, op: Op) -> Any:
        """Dictionary and order rebuilt from the ``vectorized`` matrix."""
        network, faults, vectors = op.args
        with Session(engine="vectorized") as reference:
            matrix = reference.fault_matrix(network, faults, vectors).matrix
        return (
            fault_dictionary_from_matrix(faults, matrix),
            tuple(adaptive_test_order(matrix)),
        )

    def matches(self, op: Op, output: Any, expected: Any) -> bool:
        dictionary, order = expected
        return (
            output.dictionary == dictionary
            and tuple(output.test_order) == order
            and output.resolution == dictionary.resolution()
        )


WORKLOADS = {
    cls.name: cls for cls in (VerifyRetest, CoverageEnsemble, DiagnoseMultifault)
}
