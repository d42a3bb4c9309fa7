"""The service workload: a job mix against ``python -m repro.serve``.

One client runs a closed loop of blocking ``ServeClient.submit(wait=True)``
calls, decoding every result with ``from_json`` the way the CLI ``submit``
and scripts do.  The server is a subprocess (``perfbench/serve_launcher.py``)
on a fresh temporary job directory inside the checkout, with the bit-packed
engine, one pooled session and a 4 MiB result cache (full within the first
seconds, so evictions are measured and the cache's share of the server's
memory does not depend on the run's length).
One client and the server fit a 2-CPU host; more clients would time the
scheduler.

The job mix repeats in blocks of twelve: six ``verify`` jobs (n = 8 to 16,
binary and testset strategies alternating), two ``test-set`` jobs with
explicit Thm 2.2 words (n = 8 to 11, so every request stays under the
server's 64 KiB line limit), two ``fault-coverage`` jobs on the exhaustive
cube (n = 8 to 10), one ``diagnose`` job (n = 6) and one exact
resubmission of an earlier job of the block (a dedup hit).  Each kind
cycles through its sizes on its own counter.  Half the jobs are
``verify``, so the median round trip falls inside that kind's dense band
of latencies rather than in the sparse gap between two kinds, where it
would jump from run to run.

Job directories are never deleted by the benchmark: on an ext4 volume
mounted with ``discard``, creating files stays several times slower for
tens of seconds after a few thousand files are deleted, so deleting one
run's jobs would slow the next run's job store.  They accumulate under
``.perfbench/tmp/`` (about 40 MB per 15-second run) until removed by hand.
"""

from __future__ import annotations

from collections.abc import Sequence
import gc
import json
import os
from pathlib import Path
import shutil
import subprocess
import sys
import threading
import time
from typing import Any

import numpy as np

from repro.api import Session
from repro.constructions import batcher_sorting_network, bose_nelson_sorting_network
from repro.core.evaluation import unsorted_binary_words_array
from repro.core.random_networks import random_network, random_sorter_mutation
from repro.core.serialization import network_to_dict
from repro.serve import ServeClient
from repro.serve.protocol import JobRequest, encode_message

from . import stats
from .layers import client_specs
from .runner import Op, Phase, Sample, peak_rss_mb
from .tracing import Recorder, SpanRecord, install, layer_breakdown, self_times

#: asyncio's default ``StreamReader`` line limit; longer requests are a
#: known server bug, so the generator never builds one.
MAX_REQUEST_BYTES = 64 * 1024

#: One block of the job list (``resubmit`` repeats an earlier job).
BLOCK = ("verify", "test-set", "verify", "fault-coverage", "verify", "diagnose",
         "verify", "test-set", "verify", "fault-coverage", "verify", "resubmit")

#: Jobs generated; a run that gets through them all stops early.
JOBS = 3000

LISTEN_TIMEOUT_S = 60.0

#: Byte budget of the server's shared result cache.
CACHE_BYTES = 4 * 1024 * 1024


def request_bytes(job: dict[str, Any]) -> int:
    """Size of the submit line a client sends for *job*."""
    return len(encode_message({"op": "submit", "job": job, "wait": True}))


class JobMix:
    """The seeded job list (payload dicts only)."""

    def __init__(self, seed: int, jobs: int = JOBS) -> None:
        rng = np.random.default_rng([seed, 4])
        self._words = {
            n: unsorted_binary_words_array(n).tolist() for n in range(6, 12)
        }
        self._sorters = {
            n: (batcher_sorting_network(n), bose_nelson_sorting_network(n))
            for n in range(6, 17)
        }
        self.jobs = self._jobs(rng, jobs)
        self.warm_job = self._job("verify", rng, 0, n=7)

    def _device(self, rng: np.random.Generator, n: int):
        """A two-mutation mutant of a sorter, or a random network on *n* lines.

        Never a bare sorter: identical jobs would dedup outside the
        planned resubmissions.
        """
        choice = int(rng.integers(3))
        if choice == 2:
            return random_network(n, 2 * n, rng)
        return random_sorter_mutation(self._sorters[n][choice], rng, num_mutations=2)

    def _job(
        self, kind: str, rng: np.random.Generator, step: int, n: int | None = None
    ) -> dict[str, Any]:
        if kind == "verify":
            n = n or 8 + step % 9
            strategy = ("binary", "testset")[step % 2]
            return {"kind": kind, "network": network_to_dict(self._device(rng, n)),
                    "strategy": strategy}
        if kind == "test-set":
            n = 8 + step % 4
            return {"kind": kind, "network": network_to_dict(self._device(rng, n)),
                    "vectors": {"words": self._words[n]}}
        if kind == "fault-coverage":
            n = 8 + step % 3
            return {"kind": kind, "network": network_to_dict(self._device(rng, n)),
                    "vectors": {"cube": n}, "faults": {"single": True}}
        return {"kind": "diagnose", "network": network_to_dict(self._device(rng, 6)),
                "vectors": {"words": self._words[6]}, "faults": {"single": True}}

    def _jobs(
        self, rng: np.random.Generator, count: int
    ) -> list[tuple[str, dict[str, Any]]]:
        """``(label, job)`` pairs; the label is the kind or ``resubmit``."""
        jobs: list[tuple[str, dict[str, Any]]] = []
        made = dict.fromkeys(BLOCK, 0)
        for index in range(count):
            kind = BLOCK[index % len(BLOCK)]
            if kind == "resubmit":
                this_block = jobs[-(len(BLOCK) - 1):]
                jobs.append((kind, this_block[int(rng.integers(len(this_block)))][1]))
            else:
                jobs.append((kind, self._job(kind, rng, made[kind])))
                made[kind] += 1
        return jobs


class Server:
    """One service subprocess on a fresh job directory under *workdir*."""

    def __init__(self, root: Path, workdir: Path,
                 spans_out: Path | None = None) -> None:
        self.workdir = workdir
        if workdir.exists():
            shutil.rmtree(workdir)
        (workdir / "jobs").mkdir(parents=True)
        rel = workdir.relative_to(root)
        self.socket_path = str(rel / "serve.sock")
        self.jobs = workdir / "jobs"
        command = [
            sys.executable, str(Path(__file__).resolve().parent.parent / "serve_launcher.py"),
            "--socket", self.socket_path, "--jobs", str(rel / "jobs"),
            "--engine", "bitpacked", "--pool", "1",
            "--cache-bytes", str(CACHE_BYTES),
        ]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        timer = threading.Timer(LISTEN_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline() if self.proc.stdout else ""
        finally:
            timer.cancel()
        if "listening" not in line:
            self.stop()
            raise RuntimeError(f"service did not start (first line {line!r})")

    def client(self) -> ServeClient:
        """A new connection to the service (relative socket path)."""
        return ServeClient(socket_path=self.socket_path)

    def peak_rss_mb(self) -> float:
        """The server process's ``VmHWM``."""
        return peak_rss_mb(self.proc.pid)

    def jobs_dir_bytes(self) -> tuple[int, int]:
        """(total bytes, job directories) under the job directory."""
        total = count = 0
        for entry in self.jobs.iterdir():
            if entry.is_dir():
                count += 1
                total += sum(f.stat().st_size for f in entry.iterdir())
        return total, count

    def stop(self) -> None:
        """Ask for a graceful shutdown; kill after a grace period."""
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
            except OSError:
                pass
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class ServeMixed:
    """The ``serve_mixed`` workload (see the module docstring)."""

    name = "serve_mixed"

    def __init__(self, seed: int, root: Path, scratch: Path) -> None:
        self.root = root
        self.scratch = scratch
        self.mix = JobMix(seed)
        self.server: Server | None = None
        self._phases = 0

    def open(self, spans_out: Path | None = None) -> None:
        """Start a server on a fresh job directory and run the warm-up job."""
        self.close()
        self._phases += 1
        workdir = self.scratch / f"serve-{os.getpid()}-{self._phases}"
        self.server = Server(self.root, workdir, spans_out=spans_out)
        with self.server.client() as client:
            client.submit(self.mix.warm_job, wait=True)

    def close(self) -> None:
        """Shut the server down; its job directory stays (see the module
        docstring)."""
        if self.server is not None:
            self.server.stop()
            self.server = None

    def timed_phase(self, seconds: float, recorder: Recorder | None = None) -> Phase:
        """Submit jobs in order until *seconds* pass or the job list ends."""
        assert self.server is not None
        samples: list[Sample] = []
        clock = time.perf_counter
        installed = install(recorder, client_specs()) if recorder is not None else None
        try:
            with self.server.client() as client:
                # Earlier job directories' writeback and discards would
                # otherwise land inside this phase.
                os.sync()
                gc.collect()
                start = clock()
                for index, (label, job) in enumerate(self.mix.jobs):
                    op_id = str(index)
                    if recorder is not None:
                        recorder.set_op(op_id)
                    t0 = clock()
                    try:
                        response = client.submit(job, wait=True)
                        output, error = client.decode_result(response), None
                    except Exception as exc:  # counted as a failed op
                        response, output = {}, None
                        error = f"{type(exc).__name__}: {exc}"
                    t1 = clock()
                    if recorder is not None:
                        recorder.record("bench", f"op:{label}", t0, t1, op_id)
                    op = Op(label, index, client.submit, (job,))
                    samples.append(Sample(op_id, op, t1 - t0, output, error, {
                        "job_id": response.get("job_id"),
                        "deduped": bool(response.get("deduped")),
                        "response": response,
                    }))
                    if t1 - start >= seconds:
                        break
                elapsed = clock() - start
        finally:
            if installed is not None:
                installed.remove()
        phase = Phase(samples, elapsed)
        phase.peak_rss_mb = self.server.peak_rss_mb()
        with self.server.client() as client:
            phase.info["status"] = client.status()
        phase.info["jobs_dir"] = self.server.jobs_dir_bytes()
        phase.info["traces"] = _read_traces(self.server.jobs)
        for sample in samples:
            job = sample.op.args[0]
            sample.extra["request_bytes"] = request_bytes(job)
            if sample.extra["request_bytes"] >= MAX_REQUEST_BYTES:
                raise RuntimeError("the job mix built a request over the line limit")
            response = sample.extra.pop("response")
            sample.extra["response_bytes"] = (
                len(encode_message(response)) if response else 0
            )
        return phase

    def check(self, samples: Sequence[Sample]) -> int:
        """Compare each decoded result with an in-process Session run."""
        reference: dict[str, Any] = {}
        wrong = 0
        with Session(engine="bitpacked") as session:
            for sample in samples:
                if sample.error is not None:
                    continue
                job = sample.op.args[0]
                key = json.dumps(job, sort_keys=True)
                if key not in reference:
                    reference[key] = _run_locally(session, JobRequest.from_dict(job))
                if _payload(sample.output) != _payload(reference[key]):
                    sample.error = "output mismatch"
                    wrong += 1
        return wrong


def _read_traces(jobs: Path) -> dict[str, dict[str, int]]:
    """Counters on the ``serve.job`` root of every stored ``trace.json``."""
    counters: dict[str, dict[str, int]] = {}
    for entry in jobs.iterdir():
        path = entry / "trace.json"
        if path.is_file():
            spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
            counters[entry.name] = dict(spans[0].get("counters") or {}) if spans else {}
    return counters


def _run_locally(session: Session, request: JobRequest) -> Any:
    payload = request.payload
    network = request.network()
    if request.kind == "verify":
        return session.verify(network, str(payload.get("prop", "sorter")),
                              strategy=str(payload.get("strategy", "testset")))
    if request.kind == "test-set":
        return session.passes_test_set(network, request.vectors())
    method = {"fault-coverage": session.fault_coverage,
              "diagnose": session.diagnose}[request.kind]
    return method(network, request.faults(), request.vectors())


def _payload(result: Any) -> tuple:
    """The result fields a client relies on (timings and cache deltas aside)."""
    name = type(result).__name__
    if name == "VerificationResult":
        return (name, result.verdict, result.strategy, result.n_lines)
    if name == "TestSetResult":
        return (name, result.passed, result.vectors_used)
    if name == "CoverageReport":
        return (name, result.total_faults, result.detected_faults, result.coverage,
                dict(result.by_kind), result.vectors_used, result.stats.counts())
    return (name, result.dictionary, result.test_order, result.resolution,
            result.stats.counts())


def serve_layer_metrics(
    traced: Phase, untraced: Phase, server_spans: list[SpanRecord]
) -> dict[str, float]:
    """The per-layer metrics of the service workload (see the README)."""
    n_ops = len(traced.samples)
    server_self, server_names = layer_breakdown(server_spans)
    client_layers, client_names = layer_breakdown(traced.spans)

    def per_op(value: float) -> float:
        return value / n_ops if n_ops else 0.0

    submit_end: dict[str, float] = {}
    execute_start: dict[str, float] = {}
    for span in server_spans:
        if span.name == "submit" and span.op is not None:
            submit_end.setdefault(span.op, span.end)
        if span.name == "execute" and span.op is not None:
            execute_start.setdefault(span.op, span.start)
    waits = [
        (execute_start[job] - end) * 1000.0
        for job, end in submit_end.items() if job in execute_start
    ]
    executed = [s for s in traced.completed if not s.extra["deduped"]]
    execute_ms = [s.output.execution.seconds * 1000.0 for s in executed]
    overhead_ms = [
        (s.seconds - s.output.execution.seconds) * 1000.0 for s in executed
    ]
    cache_hits = cache_lookups = evictions = stored = reused = 0
    for sample in executed:
        cache = sample.output.execution.cache
        if cache is None:
            continue
        cache_hits += cache.hits
        cache_lookups += cache.hits + cache.misses
        evictions += cache.evictions
        reused += cache.reused_comparators
        stored = max(stored, cache.stored_bytes)
    sim: dict[str, int] = {}
    for counters in traced.info["traces"].values():
        for name, value in counters.items():
            sim[name] = sim.get(name, 0) + int(value)
    status = traced.info["status"]["metrics"]
    total_bytes, job_dirs = traced.info["jobs_dir"]
    serve_self = server_self.get("serve", 0.0) + client_layers.get("serve", 0.0)
    validate = server_names.get("serve.validate", 0.0)
    jobstore = server_names.get("serve.jobstore", 0.0)
    covered = sum(own for span, own in self_times(server_spans) if span.op is not None)
    covered += sum(v for k, v in client_layers.items() if k != "bench")
    op_total = sum(s.seconds for s in traced.samples)
    evaluated = sim.get("evaluated_stage_blocks", 0)
    pruned = sim.get("pruned_stage_blocks", 0)
    return {
        "core.vectors_s": per_op(server_names.get("core.vectors", 0.0)),
        "core.evaluate_s": per_op(server_names.get("core.evaluate", 0.0)),
        "properties.check_s": per_op(server_self.get("properties", 0.0)),
        "cache.hit_rate": cache_hits / cache_lookups if cache_lookups else 0.0,
        "cache.restore_s": per_op(server_names.get("cache.restore", 0.0)),
        "cache.lookup_s": per_op(server_names.get("cache.lookup", 0.0)
                                 + server_names.get("cache.key", 0.0)),
        "cache.reused_comparators": reused,
        "cache.evictions": evictions,
        "cache.stored_bytes": stored,
        "faults.enumerate_s": per_op(server_self.get("faults.injection", 0.0)),
        "faults.enumerate_setup_s": 0.0,
        "faults.simulate_s": per_op(server_self.get("faults.simulation", 0.0)),
        "faults.ns_per_stage_block": (
            server_self.get("faults.simulation", 0.0) / evaluated * 1e9
            if evaluated else 0.0
        ),
        "faults.evaluated_stage_blocks": evaluated,
        "faults.pruned_stage_blocks": pruned,
        "faults.prune_ratio": pruned / (evaluated + pruned) if evaluated + pruned else 0.0,
        "faults.dropped_faults": sim.get("dropped_faults", 0),
        "faults.converged_faults": sim.get("converged_faults", 0),
        "diagnosis.adaptive_order_s": per_op(
            server_names.get("faults.diagnosis.adaptive_order", 0.0)),
        "diagnosis.dictionary_s": per_op(
            server_names.get("faults.diagnosis.dictionary", 0.0)),
        "diagnosis.resolution_s": per_op(
            server_names.get("faults.diagnosis.resolution", 0.0)),
        "api.session_self_s": per_op(server_names.get("api.session", 0.0)),
        "api.serialize_s": per_op(server_names.get("api.serialize", 0.0)),
        "api.deserialize_s": per_op(client_names.get("api.deserialize", 0.0)),
        "serve.validate_s": per_op(validate),
        "serve.jobstore_s": per_op(jobstore),
        "serve.service_s": per_op(serve_self - validate - jobstore),
        "serve.queue_wait_ms_p50": stats.median(waits) if waits else 0.0,
        "serve.execute_ms_p50": stats.median(execute_ms) if execute_ms else 0.0,
        "serve.overhead_ms_p50": stats.median(overhead_ms) if overhead_ms else 0.0,
        "serve.jobs_dir_bytes": total_bytes / job_dirs if job_dirs else 0.0,
        "serve.dedup_frac": (
            status["jobs_deduped"] / status["jobs_accepted"]
            if status["jobs_accepted"] else 0.0
        ),
        "serve.request_bytes_p50": stats.median(
            [s.extra["request_bytes"] for s in traced.samples]),
        "serve.response_bytes_p50": stats.median(
            [s.extra["response_bytes"] for s in traced.completed] or [0]),
        "bench.op_s": per_op(op_total),
        "bench.unattributed_frac": max(0.0, 1.0 - covered / op_total) if op_total else 0.0,
        "bench.trace_overhead_frac": 1.0 - (
            len(traced.completed) / traced.elapsed
        ) / (len(untraced.completed) / untraced.elapsed),
    }
