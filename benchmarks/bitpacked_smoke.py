"""Benchmark smoke run: vectorised vs bit-packed throughput → BENCH_bitpacked.json.

Times the two workloads the bit-packed engine exists for and writes a small
JSON report (consumed by CI and by EXPERIMENTS.md updates):

* exhaustive 0/1 verification of a Batcher sorter at ``n >= 16`` — the
  acceptance bar is a >= 10x speedup over the vectorised engine;
* full single-fault simulation (all fault kinds, the Theorem 2.2 test set).

Both workloads are cross-checked for agreement before timing.  Exits
non-zero if the engines disagree or the exhaustive speedup misses the
``--min-speedup`` floor.

Usage::

    PYTHONPATH=src python benchmarks/bitpacked_smoke.py \
        --out BENCH_bitpacked.json [--n 16] [--repeats 5] [--min-speedup 10]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.constructions import batcher_sorting_network
from repro.faults import enumerate_single_faults
from repro.faults.simulation import _fault_detection_matrix_impl
from repro.properties.sorter import _is_sorter_impl
from repro.testsets import sorting_binary_test_set


def _best_of(repeats: int, thunk) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def run(n: int, fault_n: int, repeats: int) -> dict:
    network = batcher_sorting_network(n)
    verdicts = {
        engine: _is_sorter_impl(network, strategy="binary", engine=engine)
        for engine in ("vectorized", "bitpacked")
    }
    if len(set(verdicts.values())) != 1:
        raise AssertionError(f"engines disagree on is_sorter: {verdicts}")
    exhaustive = {
        engine: _best_of(
            repeats,
            lambda e=engine: _is_sorter_impl(network, strategy="binary", engine=e),
        )
        for engine in ("vectorized", "bitpacked")
    }

    device = batcher_sorting_network(fault_n)
    faults = enumerate_single_faults(device)
    vectors = sorting_binary_test_set(fault_n)
    matrices = {
        engine: _fault_detection_matrix_impl(device, faults, vectors, engine=engine)
        for engine in ("vectorized", "bitpacked")
    }
    if not np.array_equal(matrices["vectorized"], matrices["bitpacked"]):
        raise AssertionError("engines disagree on the fault-detection matrix")
    fault_sim = {
        engine: _best_of(
            repeats,
            lambda e=engine: _fault_detection_matrix_impl(
                device, faults, vectors, engine=e
            ),
        )
        for engine in ("vectorized", "bitpacked")
    }

    return {
        "workloads": {
            "exhaustive_binary_is_sorter": {
                "n": n,
                "device": f"batcher({n})",
                "words": 2**n,
                "seconds": exhaustive,
                "speedup_bitpacked_over_vectorized": (
                    exhaustive["vectorized"] / exhaustive["bitpacked"]
                ),
            },
            "full_fault_simulation": {
                "n": fault_n,
                "device": f"batcher({fault_n})",
                "faults": len(faults),
                "vectors": len(vectors),
                "seconds": fault_sim,
                "speedup_bitpacked_over_vectorized": (
                    fault_sim["vectorized"] / fault_sim["bitpacked"]
                ),
            },
        },
        "engines_agree": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=16, help="exhaustive workload size")
    parser.add_argument("--fault-n", type=int, default=10, help="fault workload size")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--min-speedup", type=float, default=10.0)
    parser.add_argument("--out", default="BENCH_bitpacked.json")
    args = parser.parse_args(argv)

    report = run(args.n, args.fault_n, args.repeats)
    speedup = report["workloads"]["exhaustive_binary_is_sorter"][
        "speedup_bitpacked_over_vectorized"
    ]
    report["min_speedup_required"] = args.min_speedup
    report["passed"] = speedup >= args.min_speedup
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))
    if not report["passed"]:
        print(
            f"FAIL: exhaustive speedup {speedup:.1f}x below the "
            f"{args.min_speedup:.0f}x floor",
            file=sys.stderr,
        )
        return 1
    print(f"OK: exhaustive n={args.n} speedup {speedup:.1f}x (floor {args.min_speedup:.0f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
