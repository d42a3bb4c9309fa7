"""The service layer: protocol, job store, dedup queue, crash-resume.

Three tiers:

* unit tests for the wire protocol (framing, request validation, the
  content-key anatomy) and the journal job store (torn records, the
  single-writer lock, the segment budget);
* in-process end-to-end tests running the real asyncio server on a unix
  socket with blocking clients on worker threads — including the
  acceptance scenario (two concurrent identical fault-coverage
  submissions run the simulation once, ``jobs_deduped == 1``, both
  clients get bit-identical results) plus failure, timeout and
  cancellation lifecycles;
* subprocess crash-resume tests: ``python -m repro.serve`` is SIGKILLed
  and restarted against the same jobs directory — finished jobs must
  replay from disk bit-identically with the simulation counters staying
  at zero, interrupted jobs must re-run.

The unix sockets live under ``tempfile.mkdtemp(dir="/tmp")`` because
``AF_UNIX`` paths are length-limited (~108 bytes) and pytest tmp paths
can exceed that.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
from pathlib import Path
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.constructions import batcher_sorting_network
from repro.core import ComparatorNetwork
from repro.exceptions import ServiceError
from repro.faults.simulation import SIMULATION_COUNTERS
from repro.serve import (
    JOB_KINDS,
    JobRequest,
    JobStore,
    ServeClient,
    VerificationService,
    jobstore,
    serve,
)
from repro.serve.jobstore import job_records
from repro.serve.protocol import decode_message, encode_message
from repro.serve.service import MAX_LINE_BYTES

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
    # Explicit words are refused at submit, not in the executor: ragged
    # rows, the wrong width, non-integer entries, a cube of another size.
    good = [0, 1] * 4
    for words, match in (
        ([good, good[:7]], "equal-length"),
        ([good[:7], good[:7]], "8-entry rows"),
        ([good + [0], good + [1]], "8-entry rows"),
        ([good, [[0]] * 8], "equal-length"),
        ([[1.5] + good[1:]], "integers"),
        ([["1"] + good[1:]], "integers"),
        ([[None] + good[1:]], "integers"),
        ([[2**64] + good[1:]], "integers"),
    ):
        with pytest.raises(ServiceError, match=match):
            JobRequest.build("test-set", NETWORK, vectors={"words": words})
    with pytest.raises(ServiceError, match="8 lines"):
        JobRequest.build(
            "fault-coverage", NETWORK, vectors={"cube": 9},
            faults={"single": True},
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


def test_explicit_words_decode_once_into_a_read_only_array():
    words = [[0, 1] * 4, [1, 0] * 4, [True, False] * 4]
    request = JobRequest.build("test-set", NETWORK, vectors={"words": words})
    vectors = request.vectors()
    assert vectors.shape == (3, 8) and vectors.dtype.name == "int64"
    assert vectors.tolist() == [[0, 1] * 4, [1, 0] * 4, [1, 0] * 4]
    assert request.vectors() is vectors  # decoded once, not per call
    with pytest.raises(ValueError):
        vectors[0, 0] = 1
    # The payload is kept verbatim for the job store.
    assert request.to_dict()["vectors"] == {"words": words}
    coverage = JobRequest.build(
        "fault-coverage", NETWORK, vectors={"cube": 8},
        faults={"single": True},
    )
    assert isinstance(coverage.faults(), tuple)
    assert coverage.faults() is coverage.faults()
    with pytest.raises(ServiceError):
        JobRequest.build("verify", NETWORK).vectors()
    with pytest.raises(ServiceError):
        request.faults()


def test_content_key_tracks_every_bit_and_the_order_of_words():
    words = [[0, 1] * 4, [1, 1, 0, 0] * 2, [0, 0, 0, 1] * 2]

    def key(rows):
        return JobRequest.build(
            "test-set", NETWORK, vectors={"words": rows}
        ).content_key(("bitpacked", 1, None, True))

    assert key(words) == key([list(row) for row in words])
    flipped = [list(row) for row in words]
    flipped[2][5] ^= 1
    assert key(flipped) != key(words)
    assert key(words[::-1]) != key(words)
    assert key(words[:2]) != key(words)


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
    store.close()


def segment_files(root: Path) -> list[Path]:
    return sorted(root.glob("journal-*.log"))


@pytest.mark.parametrize(
    "torn",
    [
        b'{"type":"state","id":"000001-abababababab","sta',  # header
        b'{"type":"result","id":"000001-abababababab","n":64}\n{"partial',
    ],
    ids=["header", "payload"],
)
def test_jobstore_drops_a_torn_last_record(tmp_path, torn):
    root = tmp_path / "jobs"
    store = JobStore(root)
    job_id = store.create(JobRequest.from_dict(coverage_job()), "ab" * 16)
    store.write_status(job_id, "running")
    with pytest.raises(ServiceError):
        store.write_status(job_id, "no-such-state")
    store.close()
    (segment,) = segment_files(root)
    whole = segment.stat().st_size
    with segment.open("ab") as handle:  # a crash in the middle of a write
        handle.write(torn)
    store = JobStore(root)
    # The job falls back to its previous state; the segment is cut back to
    # its last whole record.
    assert segment.stat().st_size == whole
    record = store.load(job_id)
    assert record.state == "running" and record.request is not None
    assert store.read_result_text(job_id) is None
    assert [r.job_id for r in store.iter_jobs()] == [job_id]
    with pytest.raises(ServiceError):
        store.load("000099-deadbeef0000")
    # The next append starts cleanly.
    store.write_result_text(job_id, '{"coverage": 1.0}')
    store.write_status(job_id, "done")
    store.close()
    store = JobStore(root)
    assert store.read_status(job_id) == {"state": "done"}
    assert store.read_result_text(job_id) == '{"coverage": 1.0}'
    store.close()
    assert [header["type"] for _, header in job_records(root, job_id)] == [
        "create", "state", "result", "state",
    ]


def test_jobstore_mints_ids_without_listing_the_directory(
    tmp_path, monkeypatch
):
    """10,000 jobs: ids from a counter, one segment file, no per-job file or
    directory, and no directory listing or file open per create."""
    root = tmp_path / "jobs"
    store = JobStore(root)
    request = JobRequest.from_dict(coverage_job())
    line = encode_message({"op": "submit", "job": coverage_job()})

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"JobStore.create called {name}{args}")

        return refused

    monkeypatch.setattr(Path, "iterdir", refuse("Path.iterdir"))
    monkeypatch.setattr(os, "scandir", refuse("os.scandir"))
    monkeypatch.setattr(os, "listdir", refuse("os.listdir"))
    monkeypatch.setattr(os, "open", refuse("os.open"))
    monkeypatch.setattr(os, "mkdir", refuse("os.mkdir"))
    monkeypatch.setattr("builtins.open", refuse("open"))
    ids = [store.create(request, f"{i:032x}", line) for i in range(1, 10_001)]
    monkeypatch.undo()
    assert [job_id[:6] for job_id in ids[:3]] == ["000001", "000002", "000003"]
    assert ids[-1].startswith("010000-") and len(set(ids)) == len(ids)
    assert os.listdir(root) == ["journal-000001.log"]
    assert store.read_status(ids[-1]) == {"state": "queued"}
    store.close()


def test_new_jobstore_continues_past_the_highest_id(tmp_path):
    root = tmp_path / "jobs"
    request = JobRequest.from_dict(coverage_job())
    first = JobStore(root)
    for i in range(3):
        first.create(request, f"{i:032x}")
    first.close()
    # Names that are neither journal segments nor job directories.
    (root / "notes").mkdir()
    (root / "x-000500").mkdir()
    (root / "000300.tmp").write_text("")
    second = JobStore(root)
    assert second.create(request, "cd" * 16) == "000004-" + "cd" * 6
    assert second.create(request, "ef" * 16).startswith("000005-")
    # A stale second writer on the same root fails at open.
    with pytest.raises(ServiceError, match="another writer"):
        JobStore(root)
    second.close()
    third = JobStore(root)
    assert third.create(request, "ef" * 16).startswith("000006-")
    third.close()


def test_a_second_writer_is_refused_at_open(tmp_path):
    root = tmp_path / "jobs"
    first = JobStore(root)
    with pytest.raises(ServiceError, match="another writer"):
        JobStore(root)
    with pytest.raises(ServiceError, match="another writer"):
        VerificationService(root)
    first.close()
    service = VerificationService(root)  # the lock went with close()
    with pytest.raises(ServiceError, match="another writer"):
        JobStore(root)
    asyncio.run(service.close())
    JobStore(root).close()


def test_an_old_layout_root_is_refused_at_open(tmp_path):
    root = tmp_path / "jobs"
    (root / "000012-deadbeef0000").mkdir(parents=True)
    (root / "000012-deadbeef0000" / "status.json").write_text('{"state":"done"}')
    with pytest.raises(ServiceError, match="000012-deadbeef0000"):
        JobStore(root)
    with pytest.raises(ServiceError, match="000012-deadbeef0000"):
        VerificationService(root)
    # Nothing was written, and the refusal released the root.
    assert sorted(p.name for p in root.iterdir()) == ["000012-deadbeef0000"]
    shutil.rmtree(root / "000012-deadbeef0000")
    JobStore(root).close()


def record_bytes(header: dict) -> int:
    """The size of one journal record on disk, from its header."""
    size = len(json.dumps(header, separators=(",", ":"))) + 1
    return size + (header["n"] + 1 if "n" in header else 0)


def small_budget(monkeypatch, segment_bytes: int, max_segments: int) -> int:
    monkeypatch.setattr(jobstore, "SEGMENT_BYTES", segment_bytes)
    monkeypatch.setattr(jobstore, "MAX_SEGMENTS", max_segments)
    return segment_bytes * max_segments


def test_live_job_survives_its_segments_deletion(tmp_path, monkeypatch):
    """Rolling past the budget re-appends a running job whole before its
    segment goes; finished jobs of that segment are evicted, and the live
    one still resumes under a service."""
    budget = small_budget(monkeypatch, 2048, 2)
    root = tmp_path / "jobs"
    evicted: list[str] = []
    store = JobStore(root, on_evict=evicted.extend)
    live_request = JobRequest.build(
        "verify", batcher_sorting_network(6), strategy="binary"
    )
    live = store.create(
        live_request, live_request.content_key(("bitpacked", 1, None, True))
    )
    store.write_status(live, "running")
    request = JobRequest.from_dict(coverage_job())
    finished, largest = [], 0
    for i in range(40):
        job_id = store.create(request, f"{i:032x}")
        store.write_result_text(job_id, "x" * 300)
        store.write_status(job_id, "done")
        finished.append(job_id)
        largest = max(
            [largest] + [record_bytes(h) for _, h in job_records(root, job_id)]
        )
        on_disk = sum(path.stat().st_size for path in root.iterdir())
        assert on_disk <= budget + largest
        assert len(segment_files(root)) <= 2
    assert (root / "journal-000001.log").exists() is False
    assert evicted and set(evicted) <= set(finished)
    survivors = [job_id for job_id in finished if job_id not in evicted]
    assert [r.job_id for r in store.iter_jobs()] == [live, *survivors]
    assert store.load(live).state == "running"
    assert store.load(live).request.network() == batcher_sorting_network(6)
    for job_id in evicted:
        with pytest.raises(ServiceError, match="unknown job id"):
            store.load(job_id)
    store.close()

    async def resume():
        service = VerificationService(root, engine="bitpacked")
        await service.start()
        try:
            assert service.metrics.get("jobs_resumed") == 1
            assert await asyncio.wait_for(service.wait(live), 60) == "done"
            assert not set(evicted) & set(service._jobs)
        finally:
            await service.close()

    asyncio.run(resume())


def test_budget_evicts_finished_jobs_which_then_run_again(tmp_path, monkeypatch):
    """With a small budget ``jobs/`` never exceeds it by more than one
    record; an evicted job leaves the job table and the dedup map, counts
    as ``jobs_evicted``, answers "unknown job id", and re-executes when
    submitted again."""
    budget = small_budget(monkeypatch, 8192, 3)
    root = tmp_path / "jobs"
    payloads = [
        JobRequest.build(
            "verify", ComparatorNetwork.from_pairs(4, [(0, 1)] * i)
        ).to_dict()
        for i in range(24)
    ]

    async def scenario():
        service = VerificationService(root, engine="bitpacked", pool_size=1)
        await service.start()
        try:
            ids, largest = [], 0
            for payload in payloads:
                job_id, deduped = service.submit(payload)
                assert not deduped
                assert await service.wait(job_id) == "done"
                ids.append(job_id)
                largest = max(
                    [largest]
                    + [record_bytes(h) for _, h in job_records(root, job_id)]
                )
                on_disk = sum(path.stat().st_size for path in root.iterdir())
                assert on_disk <= budget + largest
            assert all(path.name.startswith("journal-") for path in root.iterdir())
            evicted = [job_id for job_id in ids if job_id not in service._jobs]
            assert evicted and evicted == ids[: len(evicted)]
            status = service.status_payload()
            assert status["metrics"]["jobs_evicted"] == len(evicted)
            assert sum(status["jobs"].values()) == len(ids) - len(evicted)
            assert sorted(service._jobs) == [r.job_id for r in service.store.iter_jobs()]
            first = evicted[0]
            assert first not in service._by_key.values()
            for view in (service.job_payload, service.result_text):
                with pytest.raises(ServiceError, match="unknown job id"):
                    view(first)
            # The identical submission runs again, under a new id.
            again, deduped = service.submit(payloads[0])
            assert not deduped and again != first
            assert await service.wait(again) == "done"
            assert service.metrics.get("jobs_executed") == len(payloads) + 1
            verdict = json.loads(service.result_text(again))["verdict"]
            assert verdict is False  # one comparator does not sort 4 lines
        finally:
            await service.close()

    asyncio.run(scenario())


def test_resume_validates_only_jobs_that_will_run(tmp_path, monkeypatch):
    store = JobStore(tmp_path / "jobs")
    identity = ("bitpacked", 1, None, True)
    states = ("done", "failed", "cancelled", "queued")
    ids = {}
    for state, n in zip(states, (8, 9, 10, 11)):
        network = batcher_sorting_network(n)
        request = JobRequest.build("verify", network, strategy="binary")
        ids[state] = store.create(request, request.content_key(identity))
        if state != "queued":
            store.write_status(ids[state], state)
    calls = []
    original = JobRequest.from_dict

    def counting(cls, payload):
        calls.append(payload["kind"])
        return original(payload)

    monkeypatch.setattr(JobRequest, "from_dict", classmethod(counting))
    records = {record.job_id: record for record in store.iter_jobs()}
    assert len(calls) == 1
    for state, job_id in ids.items():
        record = records[job_id]
        assert record.state == state and record.kind == "verify"
        assert (record.request is None) == (state != "queued")
    store.close()

    async def resume():
        service = VerificationService(tmp_path / "jobs", engine="bitpacked")
        await service.start()
        try:
            assert len(calls) == 2  # the queued job alone, once more
            assert await service.wait(ids["queued"]) == "done"
            for job_id in ids.values():
                job = service._jobs[job_id]
                assert job.request is None and job.task is None
                assert service.job_payload(job_id)["kind"] == "verify"
        finally:
            await service.close()

    asyncio.run(resume())


def stale_submit_line() -> bytes:
    """A submit line that validated once but fails today's checks: its
    fault lies outside the network (refused at submit since fault lists
    are applied to the network there)."""
    network = batcher_sorting_network(4)  # 5 comparators
    job = {
        "kind": "fault-coverage",
        "network": coverage_job(network)["network"],
        "vectors": {"cube": 4},
        "faults": {"list": [{"model": "StuckPassFault", "fields": {"index": 999}}]},
    }
    return encode_message({"op": "submit", "job": job})


def test_resume_fails_an_interrupted_job_that_no_longer_validates(tmp_path):
    """A running job whose stored request fails today's validation does not
    stop the server from booting: it is journalled ``failed`` with the
    message, once, and the other interrupted job still runs."""
    root = tmp_path / "jobs"
    store = JobStore(root)
    request = JobRequest.from_dict(coverage_job())
    stale = store.create(request, "ab" * 16, stale_submit_line())
    store.write_status(stale, "running")
    live = store.create(request, request.content_key(("bitpacked", 1, None, True)))
    store.close()

    async def resume():
        service = VerificationService(root, engine="bitpacked", pool_size=1)
        await service.start()
        try:
            payload = service.job_payload(stale)
            assert payload["state"] == "failed"
            assert "out of range" in payload["detail"]
            assert service.metrics.get("jobs_resumed") == 1
            assert await asyncio.wait_for(service.wait(live), 60) == "done"
        finally:
            await service.close()

    asyncio.run(resume())
    store = JobStore(root)
    assert [r.state for r in store.iter_jobs()] == ["failed", "done"]
    states = [h.get("state") for _, h in job_records(root, stale)]
    assert states == [None, "running", "failed"]
    store.close()


def test_resume_tolerates_evictions_caused_by_its_own_journalling(
    tmp_path, monkeypatch
):
    """Journalling a stale job ``failed`` at resume can roll the journal and
    evict finished jobs before the service has listed them."""
    small_budget(monkeypatch, 2048, 2)
    root = tmp_path / "jobs"
    store = JobStore(root)
    request = JobRequest.from_dict(coverage_job())
    finished = []
    for i in range(2):  # one per segment
        job_id = store.create(request, f"{i:032x}")
        store.write_result_text(job_id, "x" * 300)
        store.write_status(job_id, "done")
        finished.append(job_id)
    stale = store.create(request, "ab" * 16, stale_submit_line())
    assert [path.name for path in segment_files(root)] == [
        "journal-000001.log", "journal-000002.log",
    ]
    # Fill the active segment until the ``failed`` record cannot fit.
    while jobstore.SEGMENT_BYTES - segment_files(root)[-1].stat().st_size > 100:
        store.write_status(stale, "queued")
    assert len(segment_files(root)) == 2
    store.close()

    async def resume():
        service = VerificationService(root, engine="bitpacked", pool_size=1)
        await service.start()
        try:
            evicted = [job_id for job_id in finished if job_id not in service._jobs]
            assert evicted
            assert service.metrics.get("jobs_evicted") == len(evicted)
            assert sorted(service._jobs) == [
                r.job_id for r in service.store.iter_jobs()
            ]
            assert service.job_payload(stale)["state"] == "failed"
            with pytest.raises(ServiceError, match="unknown job id"):
                service.job_payload(evicted[0])
        finally:
            await service.close()

    asyncio.run(resume())


def test_jobstore_missing_result_reads_none(tmp_path):
    store = JobStore(tmp_path / "jobs")
    job_id = store.create(JobRequest.from_dict(coverage_job()), "cd" * 16)
    assert store.read_result_text(job_id) is None
    store.close()


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

        # The journal holds the job's create, result and trace records.
        job_id = first["job_id"]
        records = [header for _, header in job_records(service.store.root, job_id)]
        assert [header["type"] for header in records] == [
            "create", "state", "result", "trace", "state",
        ]
        assert records[0]["kind"] == "fault-coverage"
        assert records[0]["key"] == service._jobs[job_id].content_key
        assert service.store.read_result_text(job_id) == first["result_json"]
        trace = json.loads(service.store.read_trace_text(job_id))
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


def test_cancel_before_the_job_first_runs_terminalises_it(tmp_path, sock_dir):
    """``submit`` and ``cancel`` in one write: the server handles both
    lines without yielding, so the job's task is cancelled before its
    coroutine ever starts — the job must still end ``cancelled``."""
    job = coverage_job()

    async def scenario(service, sock):
        key = JobRequest.from_dict(job).content_key(service.execution_identity)
        job_id = f"{service.store._next_sequence:06d}-{key[:12]}"

        def run():
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(30)
                raw.connect(sock)
                replies = raw.makefile("rb")
                raw.sendall(
                    encode_message({"op": "submit", "job": job})
                    + encode_message({"op": "cancel", "job_id": job_id})
                )
                submitted = decode_message(replies.readline())
                cancelled = decode_message(replies.readline())
                replies.close()
            with ServeClient(socket_path=sock, timeout=30) as client:
                final = client.result(job_id, wait=True)
                return submitted, cancelled, final, client.job(job_id), client.status()

        submitted, cancelled, final, state, status = await asyncio.to_thread(run)
        assert submitted["job_id"] == job_id and submitted["state"] == "queued"
        assert cancelled["state"] == "cancelled"
        assert final["state"] == "cancelled"
        assert "result_json" not in final
        assert state["state"] == "cancelled"
        assert status["metrics"]["jobs_cancelled"] == 1
        assert status["metrics"]["jobs_executed"] == 0
        assert service.store.read_status(job_id)["state"] == "cancelled"
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_protocol_errors_do_not_drop_the_connection(tmp_path, sock_dir):
    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                errors = []
                for message in (
                    {"op": "no-such-op"},
                    {"op": "job", "job_id": "missing"},
                    {"op": "submit", "job": {"kind": "bogus"}},
                    # A line over the reader's 64 KiB limit.
                    {"op": "status", "pad": "x" * 70_000},
                ):
                    try:
                        client.request(message)
                    except ServiceError as exc:
                        errors.append(str(exc))
                # The same connection still works afterwards.
                return errors, client.status()

        errors, status = await asyncio.to_thread(run)
        assert len(errors) == 4
        assert "unknown op" in errors[0]
        assert "unknown job id" in errors[1]
        assert "unknown job kind" in errors[2]
        assert f"{MAX_LINE_BYTES}-byte limit" in errors[3]
        assert MAX_LINE_BYTES == 65536
        assert status["metrics"]["jobs_accepted"] == 0
        assert status["metrics"]["protocol_errors"] == 4
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_line_bound_is_exact_and_keeps_the_stream_in_sync(tmp_path, sock_dir):
    """A line of exactly MAX_LINE_BYTES is served and one byte more is
    not; a request sent behind an oversize line in the same write is
    still answered."""

    def status_line(size):
        head, tail = b'{"op": "status", "pad": "', b'"}'
        return head + b"x" * (size - len(head) - len(tail)) + tail

    async def scenario(service, sock):
        def run():
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.connect(sock)
                replies = raw.makefile("rb")
                answers = []
                for size in (MAX_LINE_BYTES, MAX_LINE_BYTES + 1):
                    raw.sendall(status_line(size) + b"\n")
                    answers.append(decode_message(replies.readline()))
                raw.sendall(
                    status_line(3 * MAX_LINE_BYTES) + b"\n"
                    + encode_message({"op": "status"})
                )
                answers.append(decode_message(replies.readline()))
                answers.append(decode_message(replies.readline()))
                replies.close()
                return answers

        exact, over, big, after = await asyncio.to_thread(run)
        assert exact["ok"]
        assert not over["ok"] and not big["ok"]
        assert after["ok"]
        assert after["metrics"]["protocol_errors"] == 2
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_malformed_words_are_refused_at_submit(tmp_path, sock_dir):
    good = [0, 1] * 4
    bad_words = (
        [good, good[:5]],  # ragged
        [good[:5], good[:5]],  # wrong width
        [[1.5] + good[1:]],  # not an integer
        [["1"] + good[1:]],
    )

    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                errors = []
                for words in bad_words:
                    job = {
                        "kind": "test-set",
                        "network": coverage_job()["network"],
                        "vectors": {"words": words},
                    }
                    with pytest.raises(ServiceError) as refused:
                        client.submit(job, wait=True)
                    errors.append(str(refused.value))
                return errors, client.status()

        errors, status = await asyncio.to_thread(run)
        assert len(errors) == len(bad_words)
        assert all("vectors.words" in error for error in errors)
        assert status["metrics"]["protocol_errors"] == len(bad_words)
        assert status["metrics"]["jobs_accepted"] == 0
        assert service.store.iter_jobs() == []
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_ill_typed_fault_lists_are_refused_at_submit(tmp_path, sock_dir):
    """Each explicit fault is checked against its model's field types at
    submit: a bad entry is answered ``{"ok": false}`` before any job
    directory exists, and the connection keeps serving."""

    def stuck(**fields):
        return {"model": "StuckPassFault", "fields": fields}

    bad_entries = (
        stuck(index="x"),
        stuck(index=1.5),
        stuck(index=[1, 2]),
        stuck(index=1, bogus=2),  # an unknown field
        stuck(),  # a missing field
        "StuckPassFault(1)",  # not an object
        {"model": "MultiFault", "fields": {"faults": [stuck(index="x")]}},
        {"model": "LineStuckFault", "fields": {"line": 0, "value": 2}},
    )

    def job(entry):
        return {
            "kind": "fault-coverage",
            "network": coverage_job()["network"],
            "vectors": {"cube": NETWORK.n_lines},
            "faults": {"list": [stuck(index=0), entry]},
        }

    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                errors = []
                for entry in bad_entries:
                    with pytest.raises(ServiceError) as refused:
                        client.submit(job(entry), wait=True)
                    errors.append(str(refused.value))
                status = client.status()
                good = client.submit(job(stuck(index=3)), wait=True)
                return errors, status, good, client.status()

        errors, status, good, after = await asyncio.to_thread(run)
        assert len(errors) == len(bad_entries)
        assert all("faults.list[1]" in error for error in errors)
        assert status["metrics"]["protocol_errors"] == len(bad_entries)
        assert status["metrics"]["jobs_accepted"] == 0
        assert good["state"] == "done"
        assert ServeClient.decode_result(good).total_faults == 2
        assert after["metrics"]["jobs_completed"] == 1
        assert len(service.store.iter_jobs()) == 1
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_bad_timeouts_are_refused_at_submit(tmp_path, sock_dir):
    """``timeout`` is null or finite seconds >= 0; anything else is answered
    ``{"ok": false}`` before the store records a job, and a valid limit
    still runs."""
    bad_timeouts = ("soon", -1, float("nan"), True, 10**400)

    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                errors = []
                for timeout in bad_timeouts:
                    # json.dumps writes NaN, and json.loads reads it back.
                    with pytest.raises(ServiceError) as refused:
                        client.submit(
                            dict(coverage_job(), timeout=timeout), wait=True
                        )
                    errors.append(str(refused.value))
                status = client.status()
                good = client.submit(dict(coverage_job(), timeout=0.5), wait=True)
                return errors, status, good

        errors, status, good = await asyncio.to_thread(run)
        assert len(errors) == len(bad_timeouts)
        assert all("'timeout'" in error for error in errors)
        assert status["metrics"]["protocol_errors"] == len(bad_timeouts)
        assert status["metrics"]["jobs_accepted"] == 0
        assert good["state"] == "done"
        assert len(service.store.iter_jobs()) == 1
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_out_of_range_faults_are_refused_at_submit(tmp_path, sock_dir):
    """Explicit faults are applied to the submitted network at submit: an
    index, line or stage out of its range is answered ``{"ok": false}``
    before the store records a job."""
    network = batcher_sorting_network(4)  # 5 comparators

    def fault(model, **fields):
        return {"model": model, "fields": fields}

    bad_entries = (
        fault("StuckPassFault", index=999),
        fault("LineStuckFault", line=9, value=0, stage=0),
        fault("LineStuckFault", line=0, value=1, stage=99),
        fault(
            "MultiFault",
            faults=[
                fault("StuckPassFault", index=0),
                fault("StuckSwapFault", index=5),
            ],
        ),
    )

    def job(entry):
        return {
            "kind": "fault-coverage",
            "network": coverage_job(network)["network"],
            "vectors": {"cube": 4},
            "faults": {"list": [entry]},
        }

    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                errors = []
                for entry in bad_entries:
                    with pytest.raises(ServiceError) as refused:
                        client.submit(job(entry), wait=True)
                    errors.append(str(refused.value))
                status = client.status()
                good = client.submit(
                    job(fault("StuckPassFault", index=4)), wait=True
                )
                return errors, status, good

        errors, status, good = await asyncio.to_thread(run)
        assert len(errors) == len(bad_entries)
        assert all("faults.list[0]" in error for error in errors)
        assert "out of range" in errors[0]
        assert status["metrics"]["protocol_errors"] == len(bad_entries)
        assert status["metrics"]["jobs_accepted"] == 0
        assert good["state"] == "done"
        assert ServeClient.decode_result(good).total_faults == 1
        assert len(service.store.iter_jobs()) == 1
        return None

    run_with_server(scenario, tmp_path, sock_dir)


def test_default_service_routes_each_job_by_value_domain(tmp_path, sock_dir):
    """Without an engine pin the service runs a 0/1 job bit-packed and
    reports ``engine_requested`` as null."""

    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                return client.submit(coverage_job(), wait=True)

        response = await asyncio.to_thread(run)
        execution = json.loads(response["result_json"])["execution"]
        assert execution["engine_requested"] is None
        assert execution["engine_effective"] == "bitpacked"
        assert service.status_payload()["config"]["engine"] is None
        return None

    run_with_server(scenario, tmp_path, sock_dir, engine=None)


def test_json_booleans_in_fault_fields_read_as_integers():
    request = JobRequest.build(
        "fault-coverage",
        NETWORK,
        vectors={"cube": NETWORK.n_lines},
        faults={"list": [{"model": "StuckPassFault", "fields": {"index": True}}]},
    )
    (fault,) = request.faults()
    assert fault.index == 1 and type(fault.index) is int


def test_cancelled_running_job_keeps_its_session_until_the_call_returns(
    tmp_path, sock_dir
):
    """Cancel a running job that has no timeout, then run two more jobs
    on a two-session pool while the cancelled call is still computing:
    no session ever runs two ``_execute`` calls at once."""
    sorter = batcher_sorting_network(7)
    broken = batcher_sorting_network(6).without_comparator(0)
    jobs = [JobRequest.build("verify", net).to_dict() for net in (sorter, broken)]

    async def scenario(service, sock):
        lock = threading.Lock()
        entered, release = threading.Event(), threading.Event()
        active: dict[int, int] = {}
        peak: dict[int, int] = {}
        original = service._execute

        def counted(session, request):
            key = id(session)
            with lock:
                active[key] = active.get(key, 0) + 1
                peak[key] = max(peak.get(key, 0), active[key])
                first = not entered.is_set()
                entered.set()
            try:
                if first:  # the job that gets cancelled
                    release.wait(30)
                return original(session, request)
            finally:
                with lock:
                    active[key] -= 1

        service._execute = counted

        def run():
            with ServeClient(socket_path=sock, timeout=60) as client:
                gated = client.submit(coverage_job(), wait=False)
                assert entered.wait(30)
                cancelled = client.cancel(gated["job_id"])
                ids = [client.submit(job, wait=False)["job_id"] for job in jobs]
                return cancelled, [client.result(i, wait=True) for i in ids]

        try:
            cancelled, results = await asyncio.to_thread(run)
        finally:
            release.set()
        assert cancelled["state"] == "cancelled"
        assert [r["state"] for r in results] == ["done", "done"]
        verdicts = [ServeClient.decode_result(r).verdict for r in results]
        assert verdicts == [True, False]
        assert max(peak.values()) == 1, peak
        # The cancelled call's session rejoins the pool once it returns.
        for _ in range(200):
            if service._session_queue.qsize() == len(service.sessions):
                break
            await asyncio.sleep(0.05)
        assert service._session_queue.qsize() == len(service.sessions)
        return None

    run_with_server(scenario, tmp_path, sock_dir, pool_size=2)


def test_finished_jobs_drop_their_requests_and_still_answer(
    tmp_path, sock_dir
):
    failing = JobRequest.build("verify", NETWORK).to_dict()
    failing["strategy"] = "no-such-strategy"

    async def scenario(service, sock):
        release = threading.Event()
        original = service._execute

        def gated(session, request):
            release.wait(30)
            return original(session, request)

        service._execute = gated

        def run():
            with ServeClient(socket_path=sock) as client:
                done = client.submit(coverage_job(), wait=False)
                cancelled = client.submit(slow_job(), wait=False)
                client.cancel(cancelled["job_id"])
                release.set()
                client.result(done["job_id"], wait=True)
                failed = client.submit(failing, wait=True)
                ids = [r["job_id"] for r in (done, cancelled, failed)]
                views = [client.job(job_id) for job_id in ids]
                results = [client.result(job_id, wait=False) for job_id in ids]
                again = client.submit(coverage_job(), wait=True)
                return ids, views, results, client.jobs(), again

        ids, views, results, jobs, again = await asyncio.to_thread(run)
        assert [view["state"] for view in views] == [
            "done", "cancelled", "failed",
        ]
        assert [view["kind"] for view in views] == [
            "fault-coverage", "fault-coverage", "verify",
        ]
        for job_id in ids:
            job = service._jobs[job_id]
            assert job.request is None and job.task is None
        assert [job["job_id"] for job in jobs] == sorted(ids)
        assert results[0]["result_json"]
        assert "result_json" not in results[1]
        assert "no-such-strategy" in results[2]["detail"]
        assert again["deduped"] is True and again["job_id"] == ids[0]
        assert again["result_json"] == results[0]["result_json"]
        return None

    run_with_server(scenario, tmp_path, sock_dir, pool_size=1)


def test_graceful_close_cancels_only_live_jobs_and_keeps_them_resumable(
    tmp_path,
):
    """Finished jobs hold no task, so close() cancels exactly the live
    ones; those keep their persisted state and re-run on the next start."""

    def verify_job(n):
        return JobRequest.build(
            "verify", batcher_sorting_network(n), strategy="binary"
        ).to_dict()

    async def first_life():
        service = VerificationService(
            tmp_path / "jobs", engine="bitpacked", pool_size=1
        )
        await service.start()
        finished, _ = service.submit(verify_job(8))
        assert await service.wait(finished) == "done"
        release = threading.Event()
        original = service._execute

        def gated(session, request):
            release.wait(30)
            return original(session, request)

        service._execute = gated
        running, _ = service.submit(verify_job(9))
        queued, _ = service.submit(verify_job(10))

        async def until_running():
            while service._jobs[running].state != "running":
                await asyncio.sleep(0.01)

        await asyncio.wait_for(until_running(), 30)
        live = [job.task for job in service._jobs.values() if job.task]
        assert len(live) == 2
        await service.close()
        release.set()
        await asyncio.to_thread(service._executor.shutdown, True)
        assert all(task.cancelled() for task in live)
        return finished, running, queued

    finished, running, queued = asyncio.run(first_life())
    store = JobStore(tmp_path / "jobs")
    assert [store.read_status(job_id)["state"] for job_id in (
        finished, running, queued
    )] == ["done", "running", "queued"]
    store.close()

    async def second_life():
        service = VerificationService(tmp_path / "jobs", engine="bitpacked")
        await service.start()
        try:
            assert service.metrics.get("jobs_resumed") == 2
            for job_id in (running, queued):
                assert await asyncio.wait_for(service.wait(job_id), 60) == "done"
        finally:
            await service.close()

    asyncio.run(second_life())


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
    store.close()

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
    asyncio.run(service.close())


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
        proc.communicate(timeout=30)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)


def test_cli_job_prints_the_journal_records_of_a_live_store(
    tmp_path, sock_dir, capsys
):
    """``repro-networks job`` reads a live server's journal without its
    lock, and skips a torn last record without truncating it."""
    failing = JobRequest.build("verify", NETWORK).to_dict()
    failing["strategy"] = "no-such-strategy"

    async def scenario(service, sock):
        def run():
            with ServeClient(socket_path=sock) as client:
                return client.submit(coverage_job(), wait=True), client.submit(
                    failing, wait=True
                )

        done, failed = await asyncio.to_thread(run)
        jobs = str(service.store.root)
        assert cli_main(["job", "--jobs", jobs, done["job_id"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"job {done['job_id']}"
        key = service._jobs[done["job_id"]].content_key
        assert f"create  kind=fault-coverage key={key} request=" in lines[1]
        assert [line.split()[1:3] for line in lines[2:]] == [
            ["state", "running"],
            ["result", str(len(done["result_json"].encode()))],
            ["trace", str(len(service.store.read_trace_text(done["job_id"])))],
            ["state", "done"],
        ]
        assert all(line.startswith("journal-000001.log") for line in lines[1:])
        assert cli_main(["job", "--jobs", jobs, failed["job_id"]]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert "state   failed detail=" in last and "no-such-strategy" in last
        return done["job_id"]

    job_id = run_with_server(scenario, tmp_path, sock_dir)
    (segment,) = segment_files(tmp_path / "jobs")
    with segment.open("ab") as handle:
        handle.write(b'{"type":"state","id":"' + job_id.encode() + b'","st')
    size = segment.stat().st_size
    assert cli_main(["job", "--jobs", str(tmp_path / "jobs"), job_id]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("state   done")
    assert segment.stat().st_size == size
    assert cli_main(["job", "--jobs", str(tmp_path / "jobs"), "000099-x"]) == 1
    assert "unknown job id" in capsys.readouterr().err
    assert cli_main(["job", "--jobs", str(tmp_path / "missing"), job_id]) == 1


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
def start_server(sock: str, jobs: str, *extra: str, **popen) -> subprocess.Popen:
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
        **popen,
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
        proc.communicate(timeout=30)
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
        proc.communicate(timeout=30)


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
        proc.communicate(timeout=30)
    os.unlink(sock)

    # The persisted state survived as non-terminal.
    store = JobStore(jobs)
    persisted = store.load(job_id)
    store.close()
    assert persisted.state in ("queued", "running")

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
        proc.communicate(timeout=30)


def test_crash_resume_with_pool_workers_left_behind(tmp_path, sock_dir):
    """A ``--workers 2`` server forks process-pool workers, which outlive a
    SIGKILL of the server: they must not keep the job store locked against
    the restart, and the finished job still replays bit-identically."""
    sock = str(sock_dir / "serve.sock")
    jobs = str(tmp_path / "jobs")
    job = coverage_job(batcher_sorting_network(10))
    servers = []

    def boot():  # each in its own process group, to reap its workers
        servers.append(
            start_server(sock, jobs, "--workers", "2", start_new_session=True)
        )

    try:
        boot()
        with ServeClient(socket_path=sock) as client:
            original = client.submit(job, wait=True)
        servers[0].send_signal(signal.SIGKILL)
        servers[0].wait(timeout=30)
        os.killpg(servers[0].pid, 0)  # its pool's workers are still alive
        os.unlink(sock)
        boot()
        with ServeClient(socket_path=sock) as client:
            replay = client.submit(job, wait=True)
            status = client.status()
            client.shutdown()
    finally:
        for proc in servers:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=30)
    assert original["state"] == "done"
    assert replay["deduped"] is True
    assert replay["job_id"] == original["job_id"]
    assert replay["result_json"] == original["result_json"]
    assert status["metrics"]["jobs_replayed"] == 1
    assert status["metrics"]["jobs_executed"] == 0
