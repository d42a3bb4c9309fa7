"""The service layer: protocol, job store, dedup queue, crash-resume.

Three tiers:

* unit tests for the wire protocol (framing, request validation, the
  content-key anatomy) and the atomic job store;
* in-process end-to-end tests running the real asyncio server on a unix
  socket with blocking clients on worker threads — including the
  acceptance scenario (two concurrent identical fault-coverage
  submissions run the simulation once, ``jobs_deduped == 1``, both
  clients get bit-identical results) plus failure, timeout and
  cancellation lifecycles;
* subprocess crash-resume tests: ``python -m repro.serve`` is SIGKILLed
  and restarted against the same job directory — finished jobs must
  replay from disk bit-identically with the simulation counters staying
  at zero, interrupted jobs must re-run.

The unix sockets live under ``tempfile.mkdtemp(dir="/tmp")`` because
``AF_UNIX`` paths are length-limited (~108 bytes) and pytest tmp paths
can exceed that.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.constructions import batcher_sorting_network
from repro.exceptions import ServiceError
from repro.faults.simulation import SIMULATION_COUNTERS
from repro.serve import (
    JOB_KINDS,
    JobRequest,
    JobStore,
    ServeClient,
    VerificationService,
    serve,
)
from repro.serve.protocol import decode_message, encode_message

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

NETWORK = batcher_sorting_network(8)

#: ~1 s of bit-packed simulation: big enough to SIGKILL mid-run.
SLOW_NETWORK = batcher_sorting_network(15)


def coverage_job(network=NETWORK) -> dict:
    return JobRequest.build(
        "fault-coverage",
        network,
        vectors={"cube": network.n_lines},
        faults={"single": True},
    ).to_dict()


def slow_job() -> dict:
    return JobRequest.build(
        "fault-coverage",
        SLOW_NETWORK,
        vectors={"cube": SLOW_NETWORK.n_lines},
        faults={"model": "StuckPassFault"},
    ).to_dict()


@pytest.fixture
def sock_dir():
    """A /tmp-rooted scratch dir (unix-socket path length limit)."""
    path = Path(tempfile.mkdtemp(dir="/tmp", prefix="repro-serve-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Protocol units
# ----------------------------------------------------------------------
def test_message_framing_round_trip():
    payload = {"op": "submit", "job": {"kind": "verify"}, "n": 3}
    line = encode_message(payload)
    assert line.endswith(b"\n")
    assert decode_message(line[:-1]) == payload
    # Deterministic bytes: equal payloads encode identically.
    assert encode_message(dict(reversed(list(payload.items())))) == line


def test_decode_rejects_garbage():
    with pytest.raises(ServiceError):
        decode_message(b"{not json")
    with pytest.raises(ServiceError):
        decode_message(b"[1, 2, 3]")


class _ChunkedSocket:
    """A connected socket stand-in that replays fixed ``recv`` chunks."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.recv_calls = 0

    def settimeout(self, timeout):
        pass

    def connect(self, address):
        pass

    def sendall(self, data):
        pass

    def recv(self, size):
        self.recv_calls += 1
        return self.chunks.pop(0) if self.chunks else b""

    def close(self):
        pass


def test_client_reads_split_and_packed_lines(monkeypatch):
    import repro.serve.client as client_module

    big = encode_message({"ok": True, "blob": "x" * (3 << 20)})
    first = encode_message({"ok": True, "n": 1})
    second = encode_message({"ok": True, "n": 2})
    step = 64 << 10
    chunks = [big[i : i + step] for i in range(0, len(big), step)]
    chunks.append(first + second)  # two whole lines in one chunk
    fake = _ChunkedSocket(chunks)
    monkeypatch.setattr(
        client_module.socket, "socket", lambda *args, **kwargs: fake
    )
    with ServeClient(socket_path="unused") as client:
        response = client.request({"op": "status"})
        assert response["blob"] == "x" * (3 << 20)
        assert fake.recv_calls == len(chunks) - 1
        assert client.request({"op": "status"})["n"] == 1
        # The second line was already buffered: no further recv.
        assert client.request({"op": "status"})["n"] == 2
        assert fake.recv_calls == len(chunks)
        with pytest.raises(ServiceError, match="closed the connection"):
            client.request({"op": "status"})


def test_job_request_validation():
    with pytest.raises(ServiceError):
        JobRequest.from_dict({"kind": "no-such-kind"})
    with pytest.raises(ServiceError):
        JobRequest.from_dict({"kind": "verify"})  # no network
    with pytest.raises(ServiceError):  # test-set refuses the cube
        JobRequest.build("test-set", NETWORK, vectors={"cube": 8})
    with pytest.raises(ServiceError):  # fault kind without faults
        JobRequest.build("fault-matrix", NETWORK, vectors={"cube": 8})
    with pytest.raises(ServiceError):  # empty word list
        JobRequest.build("test-set", NETWORK, vectors={"words": []})
    with pytest.raises(ServiceError):  # unknown fault spec member
        JobRequest.build(
            "fault-coverage", NETWORK, vectors={"cube": 8}, faults={"x": 1}
        )


def test_every_job_kind_is_buildable():
    words = {"words": [[0, 1] * 4, [1, 0] * 4]}
    specs = {
        "verify": {},
        "test-set": {"vectors": words},
        "fault-matrix": {"vectors": {"cube": 8}, "faults": {"single": True}},
        "fault-coverage": {"vectors": words, "faults": {"model": "BridgingFault"}},
        "diagnose": {"vectors": {"cube": 8}, "faults": {"single": True}},
    }
    assert set(specs) == set(JOB_KINDS)
    for kind, extra in specs.items():
        request = JobRequest.build(kind, NETWORK, **extra)
        assert request.kind == kind
        assert len(request.content_key()) == 32


def test_content_key_hashes_structure_not_formatting():
    job = coverage_job()
    key = JobRequest.from_dict(job).content_key(("bitpacked", 1, None, True))
    # Same payload through a JSON round trip with different key order.
    reordered = json.loads(
        json.dumps(job, sort_keys=True).replace(' ', '')
    )
    assert (
        JobRequest.from_dict(reordered).content_key(
            ("bitpacked", 1, None, True)
        )
        == key
    )
    # A different execution identity is a different computation.
    assert (
        JobRequest.from_dict(job).content_key(("scalar", 1, None, True))
        != key
    )
    # A different workload is a different key.
    other = dict(job, criterion="reference")
    assert (
        JobRequest.from_dict(other).content_key(("bitpacked", 1, None, True))
        != key
    )
    # Equivalent fault universes spelled differently collide (the key
    # hashes the *enumerated* faults, not the spec text).
    spelled = dict(job, faults={"single": True})
    assert (
        JobRequest.from_dict(spelled).content_key(
            ("bitpacked", 1, None, True)
        )
        == key
    )


# ----------------------------------------------------------------------
# Job store units
# ----------------------------------------------------------------------
def test_jobstore_create_load_and_artifacts(tmp_path):
    store = JobStore(tmp_path / "jobs")
    request = JobRequest.from_dict(coverage_job())
    key = request.content_key()
    job_id = store.create(request, key)
    assert job_id == f"000001-{key[:12]}"
    record = store.load(job_id)
    assert record.state == "queued"
    assert record.content_key == key
    assert record.request.kind == "fault-coverage"

    store.write_status(job_id, "running")
    assert store.read_status(job_id)["state"] == "running"
    store.write_status(job_id, "failed", detail="boom")
    assert store.load(job_id).detail == "boom"

    text = '{"type": "coverage", "coverage": 1.0}'
    store.write_result_text(job_id, text)
    assert store.read_result_text(job_id) == text
    assert store.read_trace_text(job_id) is None
    store.write_trace_text(job_id, '{"spans": []}')
    assert store.read_trace_text(job_id) == '{"spans": []}'

    # Sequences keep increasing, ids sort in submission order.
    second = store.create(request, key)
    assert second.startswith("000002-")
    assert [r.job_id for r in store.iter_jobs()] == [job_id, second]


def test_jobstore_skips_corrupt_directories(tmp_path):
    store = JobStore(tmp_path / "jobs")
    job_id = store.create(JobRequest.from_dict(coverage_job()), "ab" * 16)
    (store.root / "000099-deadbeef0000").mkdir()  # no request.json
    assert [r.job_id for r in store.iter_jobs()] == [job_id]
    with pytest.raises(ServiceError):
        store.load("000099-deadbeef0000")
    with pytest.raises(ServiceError):
        store.write_status(job_id, "no-such-state")


def test_jobstore_missing_result_reads_none(tmp_path):
    store = JobStore(tmp_path / "jobs")
    job_id = store.create(JobRequest.from_dict(coverage_job()), "cd" * 16)
    assert store.read_result_text(job_id) is None


# ----------------------------------------------------------------------
# In-process end-to-end (real server, unix socket, threaded clients)
# ----------------------------------------------------------------------
def run_with_server(scenario, tmp_path, sock_dir, **service_kwargs):
    """Boot service+server in-process, run *scenario* against it."""
    sock = str(sock_dir / "serve.sock")
    service_kwargs.setdefault("engine", "bitpacked")
    service_kwargs.setdefault("pool_size", 2)

    async def main():
        service = VerificationService(tmp_path / "jobs", **service_kwargs)
        ready: asyncio.Event = asyncio.Event()
        server = asyncio.create_task(
            serve(service, socket_path=sock, ready=ready)
        )
        await ready.wait()
        try:
            return await scenario(service, sock)
        finally:
            service.shutdown_requested.set()
            await server

    return asyncio.run(main())


def test_concurrent_identical_submissions_dedupe(tmp_path, sock_dir):
    """The acceptance scenario: one execution, two bit-identical results."""
    job = coverage_job()

    async def scenario(service, sock):
        def submit_and_wait():
            with ServeClient(socket_path=sock) as client:
                return client.submit(job, wait=True)

        first, second = await asyncio.gather(
            asyncio.to_thread(submit_and_wait),
            asyncio.to_thread(submit_and_wait),
        )
        assert first["job_id"] == second["job_id"]
        assert {first["deduped"], second["deduped"]} == {True, False}
        assert first["state"] == second["state"] == "done"
        # Bit-identical: the stored result text is served verbatim.
        assert first["result_json"] == second["result_json"]

        def inspect():
            with ServeClient(socket_path=sock) as client:
                return client.status(), client.job(first["job_id"])

        status, job_view = await asyncio.to_thread(inspect)
        assert status["metrics"]["jobs_accepted"] == 2
        assert status["metrics"]["jobs_deduped"] == 1
        assert status["metrics"]["jobs_executed"] == 1
        assert status["metrics"]["jobs_completed"] == 1
        assert status["simulation"]["faults"] > 0
        assert job_view["state"] == "done"

        # The decoded result is the typed dataclass, engine included.
        result = ServeClient.decode_result(first)
        assert result.execution.engine_effective == "bitpacked"
        assert result.coverage > 0.9

        # jobs/<id>/ holds all four artifacts.
        job_dir = service.store.job_dir(first["job_id"])
        assert sorted(p.name for p in job_dir.iterdir()) == [
            "request.json", "result.json", "status.json", "trace.json",
        ]
        trace = json.loads(job_dir.joinpath("trace.json").read_text())
        assert trace["spans"][0]["name"] == "serve.job"
        assert trace["spans"][0]["children"], "job span lost the run's trace"
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_failed_job_reports_detail_and_is_not_dedup_target(
    tmp_path, sock_dir
):
    bad = JobRequest.build("verify", NETWORK).to_dict()
    bad["strategy"] = "no-such-strategy"

    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                first = client.submit(bad, wait=True)
                second = client.submit(bad, wait=False)
                return first, second, client.status()

        first, second, status = await asyncio.to_thread(run)
        assert first["state"] == "failed"
        assert "detail" in first
        # A failed job is retried, not deduplicated.
        assert second["deduped"] is False
        assert second["job_id"] != first["job_id"]
        assert status["metrics"]["jobs_failed"] >= 1
        await service.wait(second["job_id"])
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_per_job_timeout_terminalises_as_failed(tmp_path, sock_dir):
    job = dict(coverage_job(), timeout=0.05)

    async def scenario(service, sock):
        # Gate the executor so the job provably outlasts its timeout —
        # the gate opens only after the failure has been observed.
        release = threading.Event()
        original = service._execute

        def gated(session, request):
            release.wait(30)
            return original(session, request)

        service._execute = gated

        def run():
            with ServeClient(socket_path=sock) as client:
                return client.submit(job, wait=True)

        response = await asyncio.to_thread(run)
        release.set()
        assert response["state"] == "failed"
        assert "timed out" in response["detail"]
        assert service.metrics.get("jobs_failed") == 1
        # The pooled session comes back once the thread finishes.
        for _ in range(200):
            if service._session_queue.qsize() == len(service.sessions):
                break
            await asyncio.sleep(0.05)
        assert service._session_queue.qsize() == len(service.sessions)
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_cancel_queued_job(tmp_path, sock_dir):
    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                running = client.submit(slow_job(), wait=False)
                queued = client.submit(coverage_job(), wait=False)
                cancelled = client.cancel(queued["job_id"])
                final = client.result(queued["job_id"], wait=True)
                done = client.result(running["job_id"], wait=True)
                return cancelled, final, done, client.status()

        cancelled, final, done, status = await asyncio.to_thread(run)
        assert cancelled["state"] == "cancelled"
        assert final["state"] == "cancelled"
        assert "result_json" not in final
        assert done["state"] == "done"
        assert status["metrics"]["jobs_cancelled"] == 1
        # The persisted state machine agrees.
        record = [
            r for r in service.store.iter_jobs()
            if r.job_id == cancelled["job_id"]
        ]
        assert record and record[0].state == "cancelled"
        return None

    run_with_server(scenario, tmp_path, sock_dir, pool_size=1)


def test_protocol_errors_do_not_drop_the_connection(tmp_path, sock_dir):
    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                errors = []
                for message in (
                    {"op": "no-such-op"},
                    {"op": "job", "job_id": "missing"},
                    {"op": "submit", "job": {"kind": "bogus"}},
                ):
                    try:
                        client.request(message)
                    except ServiceError as exc:
                        errors.append(str(exc))
                # The same connection still works afterwards.
                return errors, client.status()

        errors, status = await asyncio.to_thread(run)
        assert len(errors) == 3
        assert "unknown op" in errors[0]
        assert "unknown job id" in errors[1]
        assert "unknown job kind" in errors[2]
        assert status["metrics"]["jobs_accepted"] == 0
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_in_process_resume_replays_and_requeues(tmp_path, sock_dir):
    """A second service over the same store replays done jobs and
    re-runs jobs persisted in a non-terminal state."""
    done_job = coverage_job()

    async def first_life(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                return client.submit(done_job, wait=True)

        response = await asyncio.to_thread(run)
        assert response["state"] == "done"
        return response

    original = run_with_server(first_life, tmp_path, sock_dir)

    # Fake a crash mid-job: persist a second request left "queued".
    store = JobStore(tmp_path / "jobs")
    pending = JobRequest.from_dict(
        JobRequest.build(
            "verify", NETWORK, strategy="binary", prop="sorter"
        ).to_dict()
    )
    interrupted_id = store.create(
        pending, pending.content_key(("bitpacked", 1, None, True))
    )

    async def second_life(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                replay = client.submit(done_job, wait=True)
                rerun = client.result(interrupted_id, wait=True)
                return replay, rerun, client.status(), client.jobs()

        replay, rerun, status, jobs = await asyncio.to_thread(run)
        assert replay["deduped"] is True
        assert replay["job_id"] == original["job_id"]
        assert replay["result_json"] == original["result_json"]
        assert rerun["state"] == "done"
        assert status["metrics"]["jobs_resumed"] == 1
        assert status["metrics"]["jobs_replayed"] == 1
        assert status["metrics"]["jobs_executed"] == 1  # only the rerun
        assert len(jobs) == 2
        return None

    run_with_server(second_life, tmp_path, sock_dir)


def test_dunder_main_serves_until_shutdown(tmp_path, sock_dir, capsys):
    from repro.serve.__main__ import build_parser, main

    sock = str(sock_dir / "serve.sock")
    codes: list[int] = []
    thread = threading.Thread(
        target=lambda: codes.append(
            main(
                [
                    "--socket", sock, "--jobs", str(tmp_path / "jobs"),
                    "--engine", "bitpacked", "--pool", "1",
                ]
            )
        )
    )
    thread.start()
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not os.path.exists(sock):
            time.sleep(0.05)
        with ServeClient(socket_path=sock) as client:
            response = client.submit(coverage_job(), wait=True)
            assert response["state"] == "done"
            client.shutdown()
    finally:
        thread.join(timeout=30)
    assert codes == [0]
    assert "listening" in capsys.readouterr().out
    # The endpoint group is mutually exclusive and required.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--socket", sock, "--port", "1"])
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_serve_and_client_argument_validation(tmp_path):
    service = VerificationService(tmp_path / "jobs")
    with pytest.raises(ServiceError):
        asyncio.run(serve(service))
    with pytest.raises(ServiceError):
        ServeClient()
    with pytest.raises(ServiceError):
        VerificationService(tmp_path / "jobs", pool_size=0)


# ----------------------------------------------------------------------
# CLI subcommands: serve / submit / status
# ----------------------------------------------------------------------
def test_cli_serve_submit_status_round_trip(tmp_path, sock_dir, capsys):
    sock = str(sock_dir / "serve.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from repro.cli import main; sys.exit(main())",
            "serve", "--socket", sock, "--jobs", str(tmp_path / "jobs"),
            "--engine", "bitpacked", "--pool", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening" in line, (line, proc.stderr.read())

        submit_args = [
            "submit", "--socket", sock, "--kind", "fault-coverage",
            "--n", "8", "--construct", "batcher", "--strategy", "binary",
        ]
        assert cli_main(submit_args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["state"] == "done"
        assert first["deduped"] is False
        report = ServeClient.decode_result(first)
        assert report.coverage > 0.9

        # The identical submission deduplicates against the stored job.
        assert cli_main(submit_args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["deduped"] is True
        assert second["result_json"] == first["result_json"]

        assert cli_main(["status", "--socket", sock]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["metrics"]["jobs_deduped"] == 1

        assert (
            cli_main(["status", "--socket", sock, "--job", first["job_id"]])
            == 0
        )
        job_view = json.loads(capsys.readouterr().out)
        assert job_view["state"] == "done"

        with ServeClient(socket_path=sock) as client:
            client.shutdown()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def test_cli_submit_verify_job(tmp_path, sock_dir, capsys):
    sock = str(sock_dir / "serve.sock")

    async def scenario(service, sock_path):
        def run():
            code = cli_main(
                [
                    "submit", "--socket", sock_path, "--kind", "verify",
                    "--n", "8", "--construct", "batcher",
                    "--strategy", "binary",
                ]
            )
            return code

        assert await asyncio.to_thread(run) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["state"] == "done"
        assert ServeClient.decode_result(response).verdict is True
        return None

    sock_str = sock
    run_with_server(
        lambda service, _: scenario(service, sock_str), tmp_path, sock_dir
    )


# ----------------------------------------------------------------------
# Crash-resume (subprocess + SIGKILL)
# ----------------------------------------------------------------------
def start_server(sock: str, jobs: str, *extra: str) -> subprocess.Popen:
    """Boot ``python -m repro.serve`` and wait for its listening line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--socket", sock, "--jobs", jobs,
            "--engine", "bitpacked", "--pool", "1", *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    assert "listening" in line, (line, proc.stderr.read())
    return proc


def test_crash_resume_replays_finished_jobs_bit_identically(
    tmp_path, sock_dir
):
    sock = str(sock_dir / "serve.sock")
    jobs = str(tmp_path / "jobs")
    job = coverage_job()

    proc = start_server(sock, jobs)
    try:
        with ServeClient(socket_path=sock) as client:
            original = client.submit(job, wait=True)
            assert original["state"] == "done"
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    os.unlink(sock)

    proc = start_server(sock, jobs)
    try:
        with ServeClient(socket_path=sock) as client:
            replay = client.submit(job, wait=True)
            status = client.status()
            client.shutdown()
        # Answered from the job store: same id, same bytes, no compute.
        assert replay["deduped"] is True
        assert replay["job_id"] == original["job_id"]
        assert replay["result_json"] == original["result_json"]
        assert status["metrics"]["jobs_replayed"] == 1
        assert status["metrics"]["jobs_executed"] == 0
        assert status["metrics"]["jobs_resumed"] == 0
        # The SimulationStats counters stay at zero for the replay.
        assert all(
            status["simulation"][name] == 0 for name in SIMULATION_COUNTERS
        )
    finally:
        proc.wait(timeout=30)


def test_crash_resume_requeues_interrupted_jobs(tmp_path, sock_dir):
    sock = str(sock_dir / "serve.sock")
    jobs = str(tmp_path / "jobs")

    proc = start_server(sock, jobs)
    try:
        with ServeClient(socket_path=sock) as client:
            submitted = client.submit(slow_job(), wait=False)
            job_id = submitted["job_id"]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.job(job_id)["state"] == "running":
                    break
                time.sleep(0.05)
            else:
                pytest.fail("job never reached running")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    os.unlink(sock)

    # The persisted state survived as non-terminal.
    persisted = json.loads(
        (Path(jobs) / job_id / "status.json").read_text()
    )
    assert persisted["state"] in ("queued", "running")

    proc = start_server(sock, jobs)
    try:
        with ServeClient(socket_path=sock) as client:
            rerun = client.result(job_id, wait=True)
            status = client.status()
            client.shutdown()
        assert rerun["state"] == "done"
        assert rerun["result_json"]
        assert status["metrics"]["jobs_resumed"] == 1
        assert status["metrics"]["jobs_executed"] == 1
        assert status["simulation"]["faults"] > 0
    finally:
        proc.wait(timeout=30)
