"""The verification service: session pool, dedup queue, resumable jobs.

:class:`VerificationService` is the engine room behind
``python -m repro.serve``.  It owns

* a bounded pool of :class:`repro.api.Session` objects, each handed to
  an executor thread per job so the event loop never blocks on a
  sharded run;
* one shared, thread-safe :class:`repro.cache.ResultCache` wired into
  every pooled session, so near-duplicate jobs from different clients
  reuse each other's prefix states and verdicts;
* the dedup map ``content key → job id``: a submission whose
  :meth:`~repro.serve.protocol.JobRequest.content_key` matches a live or
  completed job attaches to that job instead of recomputing;
* the :class:`~repro.serve.jobstore.JobStore`, an append-only journal
  with one record per transition, so a killed server resumes: finished
  jobs replay from it (their stored result text is returned verbatim —
  bit-identical), interrupted ones are re-queued.  A submission is
  journalled as the line the server received, and acknowledged once
  that record is written.

A job holds its decoded :class:`~repro.serve.protocol.JobRequest` only
while it can still run.  Once it is ``done``, ``failed`` or
``cancelled`` it keeps its id, kind, state, detail and content key and
drops the request and its task, so the job table grows by a few short
strings per job, not by payloads; a finished job is answered from the
store.  The journal's segment budget bounds the table too: a finished
job whose segment the store deletes is evicted from it (counted as
``jobs_evicted``), and an identical submission then runs again.

Server-level counters (``jobs_accepted`` / ``jobs_deduped`` /
``jobs_executed`` / ``jobs_completed`` / ``jobs_failed`` /
``jobs_cancelled`` / ``jobs_resumed`` / ``jobs_replayed`` /
``jobs_evicted`` / ``protocol_errors``) live in a
:class:`repro.observe.Metrics` registry surfaced by the ``status``
endpoint, next to an aggregated :data:`~repro.faults.simulation.SIMULATION_COUNTERS`
registry — the latter is how the crash-resume test proves a replayed
job ran zero simulation work.

A request line longer than :data:`MAX_LINE_BYTES` is discarded through
its newline and answered with ``{"ok": false}``; the connection stays
open.

Blocking :class:`~repro.api.Session` calls live in the *synchronous*
:meth:`VerificationService._execute`, which only ever runs inside the
executor; the ``async`` methods merely await it.  Devtools rule RPR008
pins this discipline for the whole package.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
import contextlib
from pathlib import Path
from typing import Any

from ..api.session import Session
from ..cache.store import DEFAULT_MAX_BYTES, ResultCache
from ..exceptions import ServiceError
from ..faults.simulation import SIMULATION_COUNTERS
from ..observe import Metrics, Trace
from .jobstore import JobStore
from .protocol import (
    TERMINAL_STATES,
    JobRequest,
    decode_message,
    encode_message,
)

__all__ = ["MAX_LINE_BYTES", "SERVER_COUNTERS", "VerificationService", "serve"]

#: Longest request line the socket front end reads, newline excluded
#: (the stream reader's limit; asyncio's default, declared here).
MAX_LINE_BYTES = 65536

#: Fixed schema of the server-level metrics registry.
SERVER_COUNTERS = (
    "jobs_accepted",
    "jobs_deduped",
    "jobs_executed",
    "jobs_completed",
    "jobs_failed",
    "jobs_cancelled",
    "jobs_resumed",
    "jobs_replayed",
    "jobs_evicted",
    "protocol_errors",
)


class _Job:
    """In-memory state of one job (the persisted twin lives in the store).

    ``request`` and ``task`` are ``None`` once the job is terminal.
    """

    __slots__ = (
        "job_id", "kind", "request", "content_key", "state", "detail",
        "task", "done", "from_disk",
    )

    def __init__(
        self,
        job_id: str,
        kind: str,
        request: JobRequest | None,
        content_key: str,
        state: str = "queued",
        detail: str | None = None,
        from_disk: bool = False,
    ) -> None:
        self.job_id = job_id
        self.kind = kind
        self.request = request
        self.content_key = content_key
        self.state = state
        self.detail = detail
        self.task: asyncio.Task[None] | None = None
        self.done = asyncio.Event()
        self.from_disk = from_disk


class VerificationService:
    """A pool of Sessions behind a deduplicating, resumable job queue.

    Parameters
    ----------
    job_root : path-like
        The jobs directory (see :class:`~repro.serve.jobstore.JobStore`),
        held by this service until :meth:`close`; jobs found there on
        :meth:`start` are resumed.
    pool_size : int, optional
        Number of pooled Sessions = maximum concurrently running jobs
        (default 2).
    engine, workers, chunk_size, prune :
        The execution configuration of every pooled Session (``engine``
        is a pin; ``None`` routes each job by value domain) — part of
        the dedup key (see
        :meth:`~repro.serve.protocol.JobRequest.content_key`).
    timeout : float or None, optional
        Default per-job timeout in seconds (``None`` = no limit); a
        job's ``"timeout"`` payload field overrides it.
    cache_bytes : int, optional
        Byte budget of the shared thread-safe result cache.
    """

    def __init__(
        self,
        job_root: str | Path,
        *,
        pool_size: int = 2,
        engine: str | None = None,
        workers: int = 1,
        chunk_size: int | None = None,
        prune: bool = True,
        timeout: float | None = None,
        cache_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if pool_size < 1:
            raise ServiceError(f"pool_size must be >= 1, got {pool_size}")
        self.timeout = timeout
        self.execution_identity = (engine, workers, chunk_size, prune)
        self.cache = ResultCache(cache_bytes, thread_safe=True)
        self.sessions = [
            Session(
                engine=engine,
                workers=workers,
                chunk_size=chunk_size,
                prune=prune,
                cache=self.cache,
            )
            for _ in range(pool_size)
        ]
        self.metrics = Metrics(SERVER_COUNTERS)
        self.simulation = Metrics(SIMULATION_COUNTERS)
        self._jobs: dict[str, _Job] = {}
        self._by_key: dict[str, str] = {}
        self._session_queue: asyncio.Queue[Session] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._closing = False
        self.shutdown_requested = asyncio.Event()
        self.store = JobStore(job_root, on_evict=self._evict)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the session queue / executor and resume stored jobs.

        Terminal jobs in the store are indexed into the dedup map
        (``done`` ones) so future identical submissions replay them; the
        store hands them over without a request, as :meth:`_terminalise`
        leaves a finished job.  ``queued`` / ``running`` jobs — the ones a
        crash interrupted — are re-queued and counted under
        ``jobs_resumed``, once every stored job is in the table.
        """
        self._session_queue = asyncio.Queue()
        for session in self.sessions:
            self._session_queue.put_nowait(session)
        self._executor = ThreadPoolExecutor(
            max_workers=len(self.sessions),
            thread_name_prefix="repro-serve",
        )
        resumed: list[_Job] = []
        for record in self.store.iter_jobs():
            job = _Job(
                job_id=record.job_id,
                kind=record.kind,
                request=record.request,
                content_key=record.content_key,
                state=record.state,
                detail=record.detail,
                from_disk=True,
            )
            self._jobs[job.job_id] = job
            if job.state in TERMINAL_STATES:
                job.done.set()
                if job.state == "done":
                    self._by_key.setdefault(job.content_key, job.job_id)
            else:
                self.metrics.increment("jobs_resumed")
                # The job will be *re-executed* this server life, so its
                # eventual result is fresh compute, not a disk replay.
                job.from_disk = False
                self._by_key.setdefault(job.content_key, job.job_id)
                resumed.append(job)
        for job in resumed:
            self._set_state(job, "queued")
            self._spawn(job)

    async def close(self) -> None:
        """Stop gracefully: cancel live tasks *without* terminalising them.

        Interrupted jobs keep their persisted ``queued`` / ``running``
        state, so the next server on the same jobs directory re-runs
        them — same contract as a crash, minus the risk.  The job store
        is closed last, releasing the directory.
        """
        self._closing = True
        live = [job.task for job in self._jobs.values() if job.task is not None]
        for task in live:
            task.cancel()
        for task in live:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        for session in self.sessions:
            session.close()
        self.store.close()

    # ------------------------------------------------------------------
    # Submission and lifecycle transitions
    # ------------------------------------------------------------------
    def submit(
        self, payload: dict[str, Any], line: bytes | None = None
    ) -> tuple[str, bool]:
        """Accept (or dedup) one job submission.

        Parameters
        ----------
        payload : dict
            The wire ``"job"`` object
            (:meth:`repro.serve.protocol.JobRequest.from_dict`).
        line : bytes, optional
            The submit message as received, journalled verbatim; an
            in-process call without one has the payload encoded once.

        Returns
        -------
        (str, bool)
            The job id and whether the submission was deduplicated onto
            an existing job.  Dedup happens whenever the content key
            matches a job that is queued, running or done — only failed
            / cancelled jobs are retried with a fresh id.
        """
        request = JobRequest.from_dict(payload)
        key = request.content_key(self.execution_identity)
        self.metrics.increment("jobs_accepted")
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            existing = self._jobs[existing_id]
            if existing.state not in ("failed", "cancelled"):
                self.metrics.increment("jobs_deduped")
                return existing_id, True
        job_id = self.store.create(request, key, line)
        job = _Job(job_id, request.kind, request, key)
        self._jobs[job_id] = job
        self._by_key[key] = job_id
        self._spawn(job)
        return job_id, False

    def cancel(self, job_id: str) -> str:
        """Cancel a job (queued or running); terminal jobs are left alone.

        A running job's executor thread cannot be interrupted — the
        computation finishes in the background on its pooled session,
        but its result is discarded and the job terminalises as
        ``cancelled`` at once.  The session rejoins the pool only when
        that discarded call returns, so no other job runs on it
        meanwhile.

        Parameters
        ----------
        job_id : str
            The job to cancel.

        Returns
        -------
        str
            The job's state after the call.
        """
        job = self._get(job_id)
        if job.state in TERMINAL_STATES:
            return job.state
        if job.task is not None:
            job.task.cancel()
        else:  # a resumed record whose task never started (defensive)
            self._terminalise(job, "cancelled", "cancelled by client")
        return "cancelled"

    async def wait(self, job_id: str) -> str:
        """Block until a job reaches a terminal state.

        Parameters
        ----------
        job_id : str
            The job to wait for.

        Returns
        -------
        str
            The terminal state.
        """
        job = self._get(job_id)
        await job.done.wait()
        return job.state

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def job_payload(self, job_id: str) -> dict[str, Any]:
        """The status object of one job (the ``job`` endpoint).

        Parameters
        ----------
        job_id : str
            The job to describe.

        Returns
        -------
        dict
            Id, kind, state, content key and failure detail.
        """
        job = self._get(job_id)
        payload: dict[str, Any] = {
            "job_id": job.job_id,
            "kind": job.kind,
            "state": job.state,
            "content_key": job.content_key,
        }
        if job.detail is not None:
            payload["detail"] = job.detail
        return payload

    def status_payload(self) -> dict[str, Any]:
        """The server status object (the ``status`` endpoint).

        Returns
        -------
        dict
            Server counters, aggregated simulation counters, per-state
            job counts and the execution identity.
        """
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        engine, workers, chunk_size, prune = self.execution_identity
        return {
            "metrics": self.metrics.as_dict(),
            "simulation": self.simulation.as_dict(),
            "jobs": states,
            "config": {
                "engine": engine,
                "workers": workers,
                "chunk_size": chunk_size,
                "prune": prune,
                "pool_size": len(self.sessions),
                "timeout": self.timeout,
            },
        }

    def result_text(self, job_id: str) -> str | None:
        """The stored result text of a finished job (verbatim replay).

        Parameters
        ----------
        job_id : str
            The job whose result to fetch.

        Returns
        -------
        str or None
            The stored result text, byte for byte, or ``None`` when the
            job has not finished.
        """
        self._get(job_id)
        return self.store.read_result_text(job_id)

    def _get(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def _evict(self, job_ids: list[str]) -> None:
        """Drop finished jobs whose journal segment the store deleted.

        A resume can evict jobs before they reach the table.
        """
        for job_id in job_ids:
            job = self._jobs.pop(job_id, None)
            if job is not None and self._by_key.get(job.content_key) == job_id:
                del self._by_key[job.content_key]
            self.metrics.increment("jobs_evicted")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _spawn(self, job: _Job) -> None:
        """Start the lifecycle task of *job*.

        Cancellation is bookkept by the task's done-callback, not inside
        :meth:`_run`: a task cancelled before its first step never enters
        its coroutine, and the callback sees that case too.
        """
        task = asyncio.create_task(self._run(job))
        task.add_done_callback(lambda done: self._on_task_done(job, done))
        job.task = task

    async def _run(self, job: _Job) -> None:
        """The lifecycle task of one job (queued → running → terminal)."""
        assert self._session_queue is not None and self._executor is not None
        request = job.request
        assert request is not None  # dropped only once the job is terminal
        session = await self._session_queue.get()
        loop = asyncio.get_running_loop()
        self._set_state(job, "running")
        future = loop.run_in_executor(
            self._executor, self._execute, session, request
        )
        queue = self._session_queue

        def _release(fut: Any) -> None:
            queue.put_nowait(session)
            if not fut.cancelled():
                fut.exception()  # consume, silencing never-retrieved warnings

        future.add_done_callback(_release)
        timeout = request.payload.get("timeout", self.timeout)
        try:
            # Shielded: cancelling the job or timing it out must not cancel
            # the executor future, whose done-callback returns the session.
            result = await asyncio.wait_for(
                asyncio.shield(future), None if timeout is None else float(timeout)
            )
        except asyncio.TimeoutError:
            self.metrics.increment("jobs_failed")
            self._terminalise(
                job, "failed", f"timed out after {float(timeout):g}s"
            )
            return
        except Exception as exc:
            self.metrics.increment("jobs_failed")
            self._terminalise(job, "failed", f"{type(exc).__name__}: {exc}")
            return
        self.metrics.increment("jobs_executed")
        stats = getattr(result, "stats", None)
        if stats is not None:
            self.simulation.merge_packed(stats.counts())
        self.store.write_result_text(job.job_id, result.to_json())
        trace = self._job_trace(job, result)
        if trace is not None:
            self.store.write_trace_text(job.job_id, trace.to_json(indent=None))
        self.metrics.increment("jobs_completed")
        self._terminalise(job, "done")

    def _execute(self, session: Session, request: JobRequest) -> Any:
        """Run one job on a pooled session (synchronous; executor only)."""
        kind = request.kind
        payload = request.payload
        network = request.network()
        if kind == "verify":
            return session.verify(
                network,
                str(payload.get("prop", "sorter")),
                k=int(payload.get("k", 1)),
                strategy=str(payload.get("strategy", "testset")),
            )
        if kind == "test-set":
            vectors = request.vectors()
            return session.passes_test_set(network, vectors)
        criterion = str(payload.get("criterion", "specification"))
        method = {
            "fault-matrix": session.fault_matrix,
            "fault-coverage": session.fault_coverage,
            "diagnose": session.diagnose,
        }[kind]
        return method(
            network, request.faults(), request.vectors(), criterion=criterion
        )

    def _job_trace(self, job: _Job, result: Any) -> Trace | None:
        """Wrap the result's span tree in a ``serve.job`` root span."""
        trace = Trace()
        with trace.span(
            "serve.job",
            job_id=job.job_id,
            kind=job.kind,
            content_key=job.content_key,
        ) as span:
            pass
        if trace.root is None:  # span capture globally disabled
            return None
        execution = getattr(result, "execution", result)
        inner = getattr(execution, "trace", None)
        if inner is not None:
            span.children.extend(inner.roots)
        stats = getattr(result, "stats", None)
        if stats is not None:
            span.add_counters(stats.metrics.as_dict())
        return trace

    def _set_state(
        self, job: _Job, state: str, detail: str | None = None
    ) -> None:
        job.state = state
        job.detail = detail
        self.store.write_status(job.job_id, state, detail)

    def _terminalise(
        self, job: _Job, state: str, detail: str | None = None
    ) -> None:
        self._set_state(job, state, detail)
        job.request = None
        job.task = None
        job.done.set()

    def _on_task_done(self, job: _Job, task: asyncio.Task[None]) -> None:
        """Done-callback of a job's task: a cancelled task whose job is
        not terminal yet — cancelled while queued, running, or before its
        coroutine first ran — terminalises through :meth:`_on_cancelled`."""
        if task.cancelled() and job.state not in TERMINAL_STATES:
            self._on_cancelled(job)

    def _on_cancelled(self, job: _Job) -> None:
        """Cancellation bookkeeping — skipped during graceful shutdown,
        so interrupted jobs stay ``queued``/``running`` on disk and the
        next server re-runs them."""
        if self._closing:
            return
        self.metrics.increment("jobs_cancelled")
        self._terminalise(job, "cancelled", "cancelled by client")


# ----------------------------------------------------------------------
# The socket front end
# ----------------------------------------------------------------------
async def _handle_connection(
    service: VerificationService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection (one JSON message per line)."""
    while True:
        line = await _read_line(reader)
        if line == b"":
            break
        shutdown = False
        try:
            if line is None:
                raise ServiceError(
                    f"request line exceeds the {MAX_LINE_BYTES}-byte limit"
                )
            message = decode_message(line)
            shutdown = message.get("op") == "shutdown"
            response = await _dispatch(service, message, line)
        except ServiceError as exc:
            response = {"ok": False, "error": str(exc)}
        except Exception as exc:  # defensive: never drop the connection
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if not response["ok"]:
            service.metrics.increment("protocol_errors")
        writer.write(encode_message(response))
        try:
            await writer.drain()
        except ConnectionError:
            break
        if shutdown:
            break
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line (``b""`` at EOF), or ``None`` for a line over
    :data:`MAX_LINE_BYTES`.

    An oversize line is discarded through its newline, ``consumed`` bytes
    at a time, so the next read starts at the next request.
    """
    oversize = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            oversize = True
            continue
        return None if oversize else line


async def _dispatch(
    service: VerificationService, message: dict[str, Any], line: bytes
) -> dict[str, Any]:
    """Route one decoded message (received as *line*) to the service."""
    op = message.get("op")
    if op == "submit":
        job = message.get("job")
        if not isinstance(job, dict):
            raise ServiceError("submit needs a 'job' object")
        job_id, deduped = service.submit(job, line)
        response: dict[str, Any] = {
            "ok": True,
            "job_id": job_id,
            "deduped": deduped,
            "state": service.job_payload(job_id)["state"],
        }
        if message.get("wait"):
            response["state"] = await service.wait(job_id)
            _attach_result(service, job_id, response)
        return response
    if op == "status":
        return {"ok": True, **service.status_payload()}
    if op == "job":
        return {"ok": True, **service.job_payload(_job_id(message))}
    if op == "jobs":
        return {
            "ok": True,
            "jobs": [
                service.job_payload(job_id) for job_id in sorted(service._jobs)
            ],
        }
    if op == "result":
        job_id = _job_id(message)
        response = {"ok": True, "job_id": job_id}
        if message.get("wait", True):
            response["state"] = await service.wait(job_id)
        else:
            response["state"] = service.job_payload(job_id)["state"]
        _attach_result(service, job_id, response)
        return response
    if op == "cancel":
        job_id = _job_id(message)
        return {"ok": True, "job_id": job_id, "state": service.cancel(job_id)}
    if op == "shutdown":
        service.shutdown_requested.set()
        return {"ok": True, "state": "shutting-down"}
    raise ServiceError(f"unknown op {op!r}")


def _job_id(message: dict[str, Any]) -> str:
    job_id = message.get("job_id")
    if not isinstance(job_id, str):
        raise ServiceError(f"{message.get('op')} needs a 'job_id' string")
    return job_id


def _attach_result(
    service: VerificationService, job_id: str, response: dict[str, Any]
) -> None:
    """Attach the stored result text / failure detail to a response."""
    payload = service.job_payload(job_id)
    if payload["state"] == "done":
        text = service.result_text(job_id)
        if text is not None:
            response["result_json"] = text
        job = service._jobs[job_id]
        if job.from_disk:
            service.metrics.increment("jobs_replayed")
    elif "detail" in payload:
        response["detail"] = payload["detail"]


async def serve(
    service: VerificationService,
    *,
    socket_path: str | None = None,
    host: str = "127.0.0.1",
    port: int | None = None,
    ready: asyncio.Event | None = None,
) -> None:
    """Run the service on a unix or TCP socket until shutdown.

    Parameters
    ----------
    service : VerificationService
        The service to expose (started by this function).
    socket_path : str, optional
        Unix-domain socket path (preferred for local use).
    host, port :
        TCP fallback when *socket_path* is not given.
    ready : asyncio.Event, optional
        Set once the socket is listening (in-process test hook).
    """
    if (socket_path is None) == (port is None):
        raise ServiceError("serve needs exactly one of socket_path / port")
    await service.start()

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(service, reader, writer)

    if socket_path is not None:
        server = await asyncio.start_unix_server(
            handler, path=socket_path, limit=MAX_LINE_BYTES
        )
    else:
        server = await asyncio.start_server(
            handler, host=host, port=port, limit=MAX_LINE_BYTES
        )
    try:
        if ready is not None:
            ready.set()
        await service.shutdown_requested.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.close()
