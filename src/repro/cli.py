"""Command-line interface: ``repro-networks``.

Subcommands
-----------
``verify``
    Decide whether a network (given in Knuth bracket notation) is a sorter,
    ``(k, n)``-selector or merger, using a chosen strategy.
``testset``
    Print a minimum test set (sorting / selection / merging, binary or
    permutation inputs) together with the closed-form size.
``adversary``
    Construct the Lemma 2.1 near-sorter for a given binary word and print it
    in bracket notation (optionally with a diagram).
``construct``
    Print one of the classical constructions (batcher, bose-nelson, bubble,
    bitonic-standard, selector, merger).
``faults``
    Run a fault-coverage report for one of the classical constructions:
    enumerate a fault universe (``--fault-model`` picks any registered
    model — bridging, intermittent, simultaneous multi-faults — or the
    classical single-fault universe) and measure how well the paper's
    minimum sorting test set exposes it.
``diagnose``
    Build a fault dictionary over the same universes and report the
    diagnostic resolution (signature equivalence classes, singleton
    fraction, adaptive test order); see :mod:`repro.faults.diagnosis`.
``experiments``
    Run the experiment harness (E1–E11) and print the tables; this is the
    textual companion of the benchmark suite.
``serve``
    Run the long-running verification service (:mod:`repro.serve`) on a
    unix socket or TCP port — same flags as ``python -m repro.serve``.
``submit``
    Build one job from the familiar construction/fault-model flags and
    submit it to a running server; with ``--wait`` (the default) the
    command blocks until the job terminalises and prints the result.
``status``
    Print a running server's counters, job states and configuration
    (or, with ``--job ID``, one job's status object) as JSON.
``job``
    Print one job's records from a job store's journal — kind, content
    key, each state with its detail, the result and trace sizes — without
    taking the writer lock, so a live server's store can be inspected.

``verify``, ``faults`` and ``diagnose`` pick the evaluation engine by
value domain: 0/1 work runs ``bitpacked`` (0/1 batches packed 64 words
per uint64, see :mod:`repro.core.bitpacked`), permutation work
``vectorized``, and each prints the engine that ran.  ``--engine`` pins
``scalar``, ``vectorized`` or ``bitpacked`` instead, for oracles and
engine comparisons; ``experiments --engine`` picks the engine its
timing tables compare.  ``verify``, ``faults`` and ``diagnose`` accept
``--workers N`` (shard the work axis across ``N`` processes; ``0`` = one
per CPU) and ``--chunk-size W`` (stream exhaustive workloads ``W`` words
at a time in constant memory) — see :mod:`repro.parallel`.  The commands
run through the :class:`repro.api.Session` facade, so their results match
the public API bit for bit.

Examples
--------
::

    repro-networks verify --n 4 --network "[1,3][2,4][1,2][3,4]" --property sorter
    repro-networks verify --n 16 --strategy binary --construct batcher
    repro-networks verify --n 28 --strategy binary \
        --construct batcher --workers 0 --chunk-size 1048576
    repro-networks testset --property sorting --n 4 --model binary
    repro-networks adversary --sigma 0110 --diagram
    repro-networks faults --n 18 --workers 4
    repro-networks faults --n 8 --fault-model BridgingFault
    repro-networks diagnose --n 8 --fault-model MultiFault
    repro-networks experiments --fast
    repro-networks serve --socket /tmp/repro.sock --jobs ./jobs --pool 2
    repro-networks submit --socket /tmp/repro.sock --kind fault-coverage \
        --n 8 --construct batcher --strategy binary
    repro-networks status --socket /tmp/repro.sock
    repro-networks job --jobs ./jobs 000001-61e3f2a40c9b
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from ._registry import EVALUATION_ENGINES, fault_model_names
from .analysis.tables import format_rows
from .core.network import ComparatorNetwork

if TYPE_CHECKING:
    from .api import Session

__all__ = ["main", "build_parser"]

_CONSTRUCTIONS = (
    "batcher",
    "bose-nelson",
    "bubble",
    "bitonic-standard",
    "selector",
    "merger",
)


def _build_construction(kind: str, n: int, k: int) -> ComparatorNetwork:
    from .constructions import (
        batcher_merging_network,
        batcher_sorting_network,
        bitonic_sorting_network_standard,
        bose_nelson_sorting_network,
        bubble_sorting_network,
        pruned_selection_network,
    )

    builders = {
        "batcher": lambda: batcher_sorting_network(n),
        "bose-nelson": lambda: bose_nelson_sorting_network(n),
        "bubble": lambda: bubble_sorting_network(n),
        "bitonic-standard": lambda: bitonic_sorting_network_standard(n),
        "selector": lambda: pruned_selection_network(n, k),
        "merger": lambda: batcher_merging_network(n),
    }
    return builders[kind]()


def _fault_model_choices() -> tuple[str, ...]:
    """``--fault-model`` choices: the registry plus the classical mixed set."""
    # The model zoo registers itself on import; pull it in so the registry
    # is populated even when the CLI is the first thing the process loads.
    from . import faults  # noqa: F401

    return ("single", *fault_model_names())


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=EVALUATION_ENGINES,
        default=None,
        help="pin the evaluation engine, for oracles and engine comparisons "
        "(default: 0/1 work runs bitpacked, permutation work vectorized)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for sharded execution (0 = one per CPU)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="words per streamed chunk (constant-memory exhaustive runs)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write the call's span tree (repro.observe JSON) to FILE; "
        "the REPRO_TRACE environment variable sets a default",
    )


def _trace_path(args: argparse.Namespace) -> str | None:
    """The span-tree output path: ``--trace`` or the REPRO_TRACE env var."""
    path = getattr(args, "trace", None)
    if path is None:
        path = os.environ.get("REPRO_TRACE") or None
    return path


def _write_trace(args: argparse.Namespace, execution) -> None:
    """Write ``execution.trace`` as JSON when a trace path is configured."""
    path = _trace_path(args)
    if path is None:
        return
    trace = getattr(execution, "trace", None)
    if trace is None:
        print(
            "note: span capture is disabled; no trace written",
            file=sys.stderr,
        )
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace.to_json())
        fh.write("\n")


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    """Client-side server-endpoint flags (``submit`` / ``status``)."""
    endpoint = parser.add_mutually_exclusive_group(required=True)
    endpoint.add_argument("--socket", help="unix-domain socket of the server")
    endpoint.add_argument("--port", type=int, help="TCP port of the server")
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP host (with --port)"
    )


def _serve_client(args: argparse.Namespace):
    """A :class:`repro.serve.ServeClient` for the endpoint flags."""
    from .serve import ServeClient

    return ServeClient(
        socket_path=args.socket, host=args.host, port=args.port
    )


def _build_session(args: argparse.Namespace) -> Session:
    """Build a :class:`repro.api.Session` from the CLI execution flags."""
    from .api import Session

    return Session(
        engine=args.engine,
        workers=args.workers if args.workers is not None else 1,
        chunk_size=args.chunk_size,
        prune=getattr(args, "prune", True),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-networks",
        description="Test sets for sorting and related networks (Chung & Ravikumar).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify a network property")
    verify.add_argument("--n", type=int, required=True, help="number of lines")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--network", help="network in Knuth bracket notation, 1-indexed"
    )
    group.add_argument(
        "--construct",
        choices=_CONSTRUCTIONS,
        help="verify a classical construction instead of an explicit network",
    )
    verify.add_argument(
        "--property",
        choices=("sorter", "selector", "merger"),
        default="sorter",
    )
    verify.add_argument("--k", type=int, default=1, help="k for the selector property")
    verify.add_argument(
        "--strategy",
        default="testset",
        help="verification strategy (binary, testset, permutation, permutation-testset)",
    )
    _add_execution_arguments(verify)

    testset = sub.add_parser("testset", help="print a minimum test set")
    testset.add_argument(
        "--property", choices=("sorting", "selection", "merging"), required=True
    )
    testset.add_argument("--n", type=int, required=True)
    testset.add_argument("--k", type=int, default=1)
    testset.add_argument("--model", choices=("binary", "permutation"), default="binary")
    testset.add_argument(
        "--limit", type=int, default=64, help="print at most this many inputs"
    )

    adversary = sub.add_parser("adversary", help="build a Lemma 2.1 near-sorter")
    adversary.add_argument(
        "--sigma", required=True, help="unsorted binary word, e.g. 0110"
    )
    adversary.add_argument("--diagram", action="store_true", help="print a diagram")

    construct = sub.add_parser("construct", help="print a classical construction")
    construct.add_argument(
        "--kind",
        choices=(
            "batcher",
            "bose-nelson",
            "bubble",
            "bitonic-standard",
            "selector",
            "merger",
        ),
        required=True,
    )
    construct.add_argument("--n", type=int, required=True)
    construct.add_argument("--k", type=int, default=1)

    faults = sub.add_parser(
        "faults",
        help="fault-coverage report for a construction",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
test-vector strategies:
  --strategy testset   the paper's minimum sorting test set (default)
  --strategy binary    the exhaustive 2**n cube, streamed in packed chunks —
                       never materialised, so it stays in bounded memory at
                       any n (bitpacked engine)

examples:
  # Theorem 2.2 test set against batcher(18), fault axis sharded:
  repro-networks faults --n 18 --workers 4

  # Exhaustive cube coverage at n=24 in bounded (~tens of MB/worker)
  # memory: vector chunks of 2**20 words regenerated per worker on a
  # 2-D (faults x vector-chunks) grid:
  repro-networks faults --n 24 --strategy binary \\
      --workers 0 --chunk-size 1048576

  # Same run without dominated-state pruning (for timing comparisons):
  repro-networks faults --n 18 --no-prune
""",
    )
    faults.add_argument("--n", type=int, required=True, help="number of lines")
    faults.add_argument(
        "--kind",
        # Sorting networks only: the report applies the sorting test set and
        # judges outputs against the sorting specification, which is
        # meaningless for selector/merger devices (a healthy selector
        # already leaves these vectors unsorted).
        choices=("batcher", "bose-nelson", "bubble", "bitonic-standard"),
        default="batcher",
        help="sorting-network construction to inject faults into",
    )
    faults.add_argument(
        "--criterion",
        choices=("specification", "reference"),
        default="specification",
    )
    faults.add_argument(
        "--fault-model",
        # Dynamic: every model registered in repro.api.registry is a valid
        # universe, plus "single" for the classical mixed single-fault set.
        choices=_fault_model_choices(),
        default="single",
        help="fault universe: the classical single-fault set, or every "
        "fault one registered model enumerates for the device",
    )
    faults.add_argument(
        "--strategy",
        choices=("testset", "binary"),
        default="testset",
        help="test vectors: the minimum sorting test set, or the exhaustive "
        "2**n cube streamed in packed chunks (constant memory)",
    )
    faults.add_argument(
        "--no-prune",
        dest="prune",
        action="store_false",
        help="disable dominated-state pruning in the bit-packed engine "
        "(results are identical; useful for timing comparisons)",
    )
    _add_execution_arguments(faults)

    diagnose = sub.add_parser(
        "diagnose",
        help="fault-dictionary / diagnostic-resolution report",
    )
    diagnose.add_argument("--n", type=int, required=True, help="number of lines")
    diagnose.add_argument(
        "--kind",
        choices=("batcher", "bose-nelson", "bubble", "bitonic-standard"),
        default="batcher",
        help="sorting-network construction to diagnose",
    )
    diagnose.add_argument(
        "--criterion",
        choices=("specification", "reference"),
        default="specification",
    )
    diagnose.add_argument(
        "--fault-model",
        choices=_fault_model_choices(),
        default="single",
        help="fault universe to build the dictionary over",
    )
    diagnose.add_argument(
        "--no-prune",
        dest="prune",
        action="store_false",
        help="disable dominated-state pruning (results are identical)",
    )
    diagnose.add_argument(
        "--order-limit",
        type=int,
        default=16,
        help="print at most this many vectors of the adaptive test order",
    )
    _add_execution_arguments(diagnose)

    serve = sub.add_parser(
        "serve",
        help="run the verification service (same flags as python -m repro.serve)",
    )
    from .serve.__main__ import add_serve_arguments

    add_serve_arguments(serve)

    submit = sub.add_parser(
        "submit", help="submit one job to a running verification server"
    )
    _add_endpoint_arguments(submit)
    submit.add_argument(
        "--kind",
        choices=("verify", "test-set", "fault-matrix", "fault-coverage",
                 "diagnose"),
        default="fault-coverage",
        help="job kind (one per Session workload)",
    )
    submit.add_argument("--n", type=int, required=True, help="number of lines")
    netgroup = submit.add_mutually_exclusive_group()
    netgroup.add_argument(
        "--network", help="network in Knuth bracket notation, 1-indexed"
    )
    netgroup.add_argument(
        "--construct",
        choices=_CONSTRUCTIONS,
        default="batcher",
        help="submit a classical construction (default: batcher)",
    )
    submit.add_argument(
        "--property",
        choices=("sorter", "selector", "merger"),
        default="sorter",
        help="property for verify jobs",
    )
    submit.add_argument(
        "--k", type=int, default=1, help="k for the selector property"
    )
    submit.add_argument(
        "--strategy",
        choices=("testset", "binary"),
        default="testset",
        help="test vectors for fault kinds: the minimum sorting test set, "
        "or the exhaustive 2**n cube (verify jobs pass the flag through)",
    )
    submit.add_argument(
        "--fault-model",
        choices=_fault_model_choices(),
        default="single",
        help="fault universe for the fault kinds",
    )
    submit.add_argument(
        "--criterion",
        choices=("specification", "reference"),
        default="specification",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout (seconds)"
    )
    submit.add_argument(
        "--no-wait",
        dest="wait",
        action="store_false",
        help="return the job id immediately instead of waiting for the result",
    )

    status = sub.add_parser(
        "status", help="print a running server's status as JSON"
    )
    _add_endpoint_arguments(status)
    status.add_argument(
        "--job", default=None, metavar="ID", help="show one job instead"
    )

    job = sub.add_parser(
        "job", help="print one job's journal records from a job store"
    )
    job.add_argument(
        "--jobs", default="jobs", help="job-store directory (default: jobs)"
    )
    job.add_argument("job_id", metavar="JOB_ID", help="the job to show")

    experiments = sub.add_parser("experiments", help="run the experiment harness")
    experiments.add_argument("--fast", action="store_true", help="small parameters")
    experiments.add_argument(
        "--only", default=None, help="comma-separated experiment ids, e.g. E4,E5"
    )
    experiments.add_argument(
        "--engine",
        choices=EVALUATION_ENGINES,
        default="vectorized",
        help="engine forwarded to the evaluation-heavy experiments",
    )
    experiments.add_argument(
        "--workers",
        type=int,
        default=1,
        help="also record E11 timings sharded across this many processes",
    )
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    from .core.evaluation import BINARY_STRATEGIES

    if args.construct is not None:
        network = _build_construction(args.construct, args.n, args.k)
    else:
        network = ComparatorNetwork.from_knuth(args.n, args.network)
    if args.workers is not None or args.chunk_size is not None:
        # Streaming coverage: merger chunks its word lists with any engine,
        # sorter chunks the permutation strategies, and the 0/1 strategies
        # stream the packed cube (sorter/selector, bitpacked engine only).
        # Anywhere else the config would be silently ignored — be honest
        # about the run being serial single-shot rather than printing a
        # worker count that never materialised.
        binary = args.strategy in BINARY_STRATEGIES
        streams = (
            args.property == "merger"
            or (args.property == "sorter" and not binary)
            or (
                args.property in ("sorter", "selector")
                and binary
                and args.engine in (None, "bitpacked")
            )
        )
        if not streams:
            pin = "" if args.engine is None else f" --engine {args.engine}"
            print(
                "note: --workers/--chunk-size do not apply to "
                f"--property {args.property} --strategy {args.strategy}"
                f"{pin}; running single-shot",
                file=sys.stderr,
            )
            args.workers = None
            args.chunk_size = None
    with _build_session(args) as session:
        result = session.verify(
            network, args.property, k=args.k, strategy=args.strategy
        )
    _write_trace(args, result.execution)
    print(
        f"property={args.property} "
        f"engine={result.execution.engine_effective} "
        f"workers={result.execution.workers} "
        f"verdict={'YES' if result.verdict else 'NO'}"
    )
    return 0 if result.verdict else 1


def _cmd_testset(args: argparse.Namespace) -> int:
    from . import testsets

    if args.property == "sorting":
        if args.model == "binary":
            words = testsets.sorting_binary_test_set(args.n)
            size = testsets.sorting_test_set_size(args.n)
        else:
            words = testsets.sorting_permutation_test_set(args.n)
            size = testsets.sorting_permutation_test_set_size(args.n)
    elif args.property == "selection":
        if args.model == "binary":
            words = testsets.selector_binary_test_set(args.n, args.k)
            size = testsets.selector_test_set_size(args.n, args.k)
        else:
            words = testsets.selector_permutation_test_set(args.n, args.k)
            size = testsets.selector_permutation_test_set_size(args.n, args.k)
    else:
        if args.model == "binary":
            words = testsets.merging_binary_test_set(args.n)
            size = testsets.merging_test_set_size(args.n)
        else:
            words = testsets.merging_permutation_test_set(args.n)
            size = testsets.merging_permutation_test_set_size(args.n)
    print(f"minimum {args.property} test set, {args.model} inputs, n={args.n}: {size} inputs")
    for word in words[: args.limit]:
        print("".join(str(v) for v in word) if args.model == "binary" else word)
    if len(words) > args.limit:
        print(f"... ({len(words) - args.limit} more)")
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    from .testsets import near_sorter, verify_near_sorter

    sigma = tuple(int(c) for c in args.sigma.strip())
    network = near_sorter(sigma)
    verify_near_sorter(sigma, network)
    print(f"H_sigma for sigma={args.sigma}: {network.size} comparators")
    print(network.to_knuth())
    if args.diagram:
        print(network.diagram(input_word=sigma))
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    network = _build_construction(args.kind, args.n, args.k)
    print(
        f"{args.kind} on {args.n} lines: size={network.size} depth={network.depth} "
        f"height={network.height}"
    )
    print(network.to_knuth())
    return 0


def _enumerate_universe(device: ComparatorNetwork, fault_model: str) -> list:
    """Resolve the ``--fault-model`` flag to a concrete fault universe."""
    from .faults import enumerate_model_faults, enumerate_single_faults

    if fault_model == "single":
        return enumerate_single_faults(device)
    return enumerate_model_faults(device, fault_model)


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import CubeVectors
    from .testsets import sorting_binary_test_set

    device = _build_construction(args.kind, args.n, 1)
    faults = _enumerate_universe(device, args.fault_model)
    if args.strategy == "binary":
        if args.engine not in (None, "bitpacked") and args.n > 20:
            print(
                "error: --strategy binary above n=20 runs only on the "
                f"bitpacked engine (the default); --engine {args.engine} "
                "would materialise the cube",
                file=sys.stderr,
            )
            return 2
        vectors = CubeVectors(args.n)
    else:
        vectors = sorting_binary_test_set(args.n)
    with _build_session(args) as session:
        report = session.fault_coverage(
            device, faults, vectors, criterion=args.criterion
        )
    _write_trace(args, report.execution)
    stats = report.stats
    print(
        f"device={args.kind}({args.n}) "
        f"engine={report.execution.engine_effective} "
        f"workers={report.execution.workers} criterion={args.criterion} "
        f"model={args.fault_model} strategy={args.strategy} prune={args.prune}"
    )
    print(
        f"vectors={report.vectors_used} faults={report.total_faults} "
        f"detected={report.detected_faults} coverage={report.coverage:.4f}"
    )
    if stats.total_stage_blocks:
        print(
            f"pruned_stage_blocks={stats.pruned_stage_blocks} "
            f"prune_ratio={stats.prune_ratio:.4f} "
            f"converged_faults={stats.converged_faults} "
            f"dropped_faults={stats.dropped_faults} "
            f"grid={report.execution.grid_shape} "
            f"sim_seconds={report.execution.seconds:.3f}"
        )
    for kind, (found, total) in sorted(report.by_kind.items()):
        print(f"  {kind}: {found}/{total}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from .testsets import sorting_binary_test_set

    device = _build_construction(args.kind, args.n, 1)
    faults = _enumerate_universe(device, args.fault_model)
    vectors = sorting_binary_test_set(args.n)
    with _build_session(args) as session:
        result = session.diagnose(device, faults, vectors, criterion=args.criterion)
    _write_trace(args, result.execution)
    res = result.resolution
    print(
        f"device={args.kind}({args.n}) "
        f"engine={result.execution.engine_effective} "
        f"workers={result.execution.workers} criterion={args.criterion} "
        f"model={args.fault_model} prune={args.prune}"
    )
    print(
        f"faults={res.num_faults} vectors={result.num_vectors} "
        f"coverage={result.coverage.coverage:.4f}"
    )
    print(
        f"classes={res.num_classes} singletons={res.singleton_classes} "
        f"max_class={res.max_class_size} undetected={res.undetected_faults} "
        f"resolution={res.resolution:.4f} "
        f"fully_resolved={'yes' if res.fully_resolved else 'no'}"
    )
    order = result.test_order[: args.order_limit]
    suffix = " ..." if len(result.test_order) > args.order_limit else ""
    print(f"adaptive_order={list(order)}{suffix}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.__main__ import run_serve

    return run_serve(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .serve.protocol import JobRequest
    from .testsets import sorting_binary_test_set

    if args.network is not None:
        network = ComparatorNetwork.from_knuth(args.n, args.network)
    else:
        network = _build_construction(args.construct, args.n, args.k)
    vectors = faults = None
    params: dict = {}
    if args.kind == "verify":
        params = {"prop": args.property, "strategy": args.strategy, "k": args.k}
    else:
        # The test-set kind takes explicit words by contract; the fault
        # kinds choose between the paper's test set and the streamed cube.
        if args.kind == "test-set" or args.strategy == "testset":
            vectors = {
                "words": [list(w) for w in sorting_binary_test_set(args.n)]
            }
        else:
            vectors = {"cube": args.n}
        if args.kind != "test-set":
            faults = (
                {"single": True}
                if args.fault_model == "single"
                else {"model": args.fault_model}
            )
            params = {"criterion": args.criterion}
    if args.timeout is not None:
        params["timeout"] = args.timeout
    request = JobRequest.build(
        args.kind, network, vectors=vectors, faults=faults, **params
    )
    with _serve_client(args) as client:
        response = client.submit(request.to_dict(), wait=args.wait)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 1 if response.get("state") in ("failed", "cancelled") else 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    with _serve_client(args) as client:
        payload = client.job(args.job) if args.job else client.status()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_job(args: argparse.Namespace) -> int:
    from .exceptions import ServiceError
    from .serve.jobstore import job_records

    try:
        records = job_records(args.jobs, args.job_id)
    except (OSError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(
            f"error: unknown job id {args.job_id!r} in {args.jobs}", file=sys.stderr
        )
        return 1
    print(f"job {args.job_id}")
    for segment, header in records:
        record = header["type"]
        if record == "create":
            text = (
                f"kind={header['kind']} key={header['key']} "
                f"request={header['n']} bytes"
            )
        elif record == "state":
            text = header["state"]
            if "detail" in header:
                text += f" detail={header['detail']!r}"
        else:
            text = f"{header['n']} bytes"
        print(f"{segment}  {record:<6}  {text}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_all_experiments

    results = run_all_experiments(
        fast=args.fast, engine=args.engine, workers=args.workers
    )
    wanted = None
    if args.only:
        wanted = {name.strip().upper() for name in args.only.split(",")}
    for name, rows in results.items():
        if wanted is not None and name not in wanted:
            continue
        print(format_rows(rows, title=f"== {name} =="))
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-networks`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "testset": _cmd_testset,
        "adversary": _cmd_adversary,
        "construct": _cmd_construct,
        "faults": _cmd_faults,
        "diagnose": _cmd_diagnose,
        "experiments": _cmd_experiments,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "job": _cmd_job,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
