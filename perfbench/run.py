#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload verify_retest --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md``): ``verify_retest``,
``coverage_ensemble``, ``diagnose_multifault``, ``serve_mixed``.

With ``--trace 0`` the command times the workload with tracing off and
prints the end-to-end metrics; ``setup_s`` is the median over three fresh
processes that each set the workload up (two set-up-only probes plus the
measuring process).  With ``--trace 1`` one process runs the workload
untraced and then traced, and prints the per-layer metrics.  Every op's
output is checked against an independent path outside the timed region.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the provenance record.  Full reports (and, for traced runs, every
span) are written under ``.perfbench/`` in the checkout.  The exit code is
0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import subprocess
import sys
import threading
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("verify_retest", "coverage_ensemble", "diagnose_multifault", "serve_mixed")
SETUP_PROBES = 2
DEADLINE_S = 175.0
READY = "perfbench-ready"
RESULT = "perfbench-result "


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "measure"),
                        default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# The orchestrating process (standard library only)
# ----------------------------------------------------------------------
def _spawn(args: argparse.Namespace, role: str, deadline: float) -> tuple[float, dict]:
    """Run one child; return (seconds until it was set up, its report)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready_s = None
    report: dict = {}
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.strip() == READY and ready_s is None:
                ready_s = time.perf_counter() - started
            elif line.startswith(RESULT):
                report = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None:
        raise RuntimeError(f"{role} process failed (exit code {code})")
    return ready_s, report


def orchestrate(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro package in this checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(args, "setup", deadline)[0])
        ready_s, report = _spawn(args, "measure", deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = report["metrics"]
    provenance = report["provenance"]
    if not args.trace:
        setups.append(ready_s)
        setup_s = sorted(setups)[len(setups) // 2]
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        provenance["setup_samples_s"] = setups
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report["metrics"] = metrics
    (OUT / "results" / name).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["failed"] == 0 else 1


# ----------------------------------------------------------------------
# The measuring process
# ----------------------------------------------------------------------
def measure(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    from pbench import runner
    from pbench.metrics import with_units

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": runner.git_sha(str(ROOT)),
        "host": runner.host_record(),
    }
    if args.workload == "serve_mixed":
        body = _measure_serve(args, provenance)
    else:
        body = _measure_in_process(args, provenance)
    if body is None:
        return 0
    phases, values, failed, layers_by_kind = body
    attempted = sum(len(p.samples) for p in phases)
    provenance["ops"] = [len(p.samples) for p in phases]
    provenance["elapsed_s"] = [p.elapsed for p in phases]
    provenance["ops_by_kind"] = runner.ops_by_kind(phases[-1].samples)
    if args.trace:
        provenance["layers_by_kind"] = layers_by_kind
        metrics = with_units(values)
    else:
        metrics, info = runner.end_to_end(phases[0])
        provenance.update(info)
    report = {"metrics": metrics, "provenance": provenance,
              "attempted": attempted, "failed": failed}
    print(RESULT + json.dumps(report), flush=True)
    return 0


def _ready() -> None:
    print(READY, flush=True)


def _write_spans(args: argparse.Namespace, spans: dict) -> str:
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(spans))
    return str(path.relative_to(ROOT))


def _measure_in_process(args, provenance):
    from pbench import runner
    from pbench.inprocess import WORKLOADS as CLASSES
    from pbench.layers import in_process_specs, setup_specs
    from pbench.metrics import in_process_layer_metrics
    from pbench.tracing import Recorder, install

    cls = CLASSES[args.workload]
    setup_recorder = Recorder()
    if args.trace:
        with install(setup_recorder, setup_specs()):
            workload = cls(args.seed)
    else:
        workload = cls(args.seed)
    workload.open()
    _ready()
    if args.role == "setup":
        workload.close()
        return None
    untraced = runner.run_rounds(workload.rounds(), args.seconds)
    untraced.peak_rss_mb = runner.peak_rss_mb()
    phases = [untraced]
    values: dict = {}
    layers_by_kind: dict = {}
    if args.trace:
        workload.open()
        recorder = Recorder()
        with install(recorder, in_process_specs()):
            traced = runner.run_rounds(workload.rounds(), args.seconds, recorder)
        traced.spans = recorder.spans
        phases.append(traced)
        values = in_process_layer_metrics(
            workload, traced, untraced, setup_recorder.spans)
        layers_by_kind = runner.breakdown_by_kind(traced.spans, traced.samples)
        provenance["spans_file"] = _write_spans(args, {
            "phase": recorder.to_dicts(), "setup": setup_recorder.to_dicts()})
    workload.close()
    for phase in phases:
        workload.check(phase.samples)
    failed = sum(1 for p in phases for s in p.samples if s.error is not None)
    return phases, values, failed, layers_by_kind


def _measure_serve(args, provenance):
    from pbench import runner
    from pbench.serve_mixed import ServeMixed, serve_layer_metrics
    from pbench.tracing import Recorder, SpanRecord

    workload = ServeMixed(args.seed, ROOT, OUT / "tmp")
    try:
        workload.open()
        _ready()
        if args.role == "setup":
            return None
        untraced = workload.timed_phase(args.seconds)
        phases = [untraced]
        values: dict = {}
        layers_by_kind: dict = {}
        if args.trace:
            spans_path = OUT / "tmp" / f"server-spans-{os.getpid()}.json"
            workload.open(spans_out=spans_path)
            recorder = Recorder()
            traced = workload.timed_phase(args.seconds, recorder)
            traced.spans = recorder.spans
            workload.close()
            server = [SpanRecord.from_dict(d) for d in json.loads(spans_path.read_text())]
            spans_path.unlink()
            for span in server:  # thread ids are only unique per process
                span.thread = f"server-{span.thread}"
            phases.append(traced)
            values = serve_layer_metrics(traced, untraced, server)
            layers_by_kind = runner.breakdown_by_kind(
                traced.spans + server, traced.samples,
                {s.extra["job_id"]: s.op.kind for s in traced.samples
                 if s.extra["job_id"] and not s.extra["deduped"]},
            )
            provenance["spans_file"] = _write_spans(args, {
                "client": recorder.to_dicts(),
                "server": [s.to_dict() for s in server]})
    finally:
        workload.close()
    for phase in phases:
        workload.check(phase.samples)
    failed = sum(1 for p in phases for s in p.samples if s.error is not None)
    provenance["request_bytes_max"] = max(
        s.extra["request_bytes"] for p in phases for s in p.samples)
    return phases, values, failed, layers_by_kind


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.role == "main":
        return orchestrate(args)
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
