"""The resumable job store: one append-only journal of job transitions.

Layout (under the store root, typically ``jobs/``)::

    jobs/
      journal-000001.log
      journal-000002.log   # the active segment; records are appended here

Every transition of a job is one *record*: a compact JSON header line,
followed — for the records that carry one — by a payload of exactly
``n`` bytes (the header's ``n``) and a newline.  Payloads are stored
verbatim, never escaped or re-encoded:

``{"type": "create", "id", "kind", "key", "n"}``
    A new job in state ``queued``; the payload is the submit line as the
    server received it (an in-process submit encodes its payload once).
``{"type": "state", "id", "state"[, "detail"]}``
    A state transition; no payload.
``{"type": "result", "id", "n"}`` / ``{"type": "trace", "id", "n"}``
    The result's ``to_json()`` text — the replay currency, answered
    verbatim, which keeps replays bit-identical — and the job-level span
    tree (``serve.job`` wrapping the run).
``{"type": "segment", "next"}``
    The first record of every segment: the sequence of the next job id,
    so ids are never reused after their jobs were evicted.

A record is appended with one :func:`os.write` on the event loop, and a
submission is acknowledged only once its ``create`` record is written.
There is no ``fsync``: a SIGKILL loses nothing the kernel accepted.  A
write that fails part-way is truncated away, so records never tear in
the middle of a segment; a crash can tear only the last one.

Opening a store replays the segments in order.  A torn last record — a
header without its newline, or a payload shorter than its ``n`` — is
dropped and its segment truncated to the last whole record, so that job
falls back to its previous state and the next append starts cleanly.
Only ``queued`` / ``running`` jobs are re-validated into a
:class:`~repro.serve.protocol.JobRequest` (they will run again); one
whose stored submit line no longer validates is journalled ``failed``
with the validation message.  A finished job is answered from its stored
records, read back by offset.

One writer: the store holds an exclusive :func:`fcntl.flock` on its root
until :meth:`JobStore.close`, so a second store on the same root fails
at open.  A forked child closes its copies of every store's descriptors
at once: the lock belongs to the open file description, which a child
shares, and a process-pool worker outlives a killed server.  A root
that still holds per-job directories of the earlier directory-per-job
layout is refused at open, naming them, rather than dropping the jobs
they hold.  :func:`job_records` reads a journal without the lock (the
``repro-networks job`` command).

The disk budget is :data:`MAX_SEGMENTS` segments of about
:data:`SEGMENT_BYTES` each.  A record that would overflow the active
segment opens the next one; when that exceeds the budget, the oldest
segment's ``queued`` / ``running`` jobs are re-appended whole and the
segment is deleted.  Its finished jobs are *evicted*: they leave the
store (and, through ``on_evict``, the service's job table), an identical
submission runs again, and their ids answer "unknown job id".  The
budget thus bounds both ``jobs/`` and the in-memory job tables.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
import fcntl
import json
import os
from pathlib import Path
import re
from typing import Any
import weakref

from ..exceptions import ServiceError
from .protocol import (
    JOB_STATES,
    TERMINAL_STATES,
    JobRequest,
    decode_message,
    encode_message,
)

__all__ = ["MAX_SEGMENTS", "SEGMENT_BYTES", "JobRecord", "JobStore", "job_records"]

#: Size at which the active segment is closed and the next one opened
#: (a record that would cross it goes to the next segment).
SEGMENT_BYTES = 64 * 1024 * 1024

#: Segments kept on disk; opening one more deletes the oldest.
MAX_SEGMENTS = 8

_SEGMENT_NAME = re.compile(r"journal-(\d{6,})\.log")

#: Where a payload lives: (segment number, byte offset, length).
_Location = tuple[int, int, int]

#: The stores open in this process (see :func:`_close_in_child`).
_OPEN_STORES: weakref.WeakSet[JobStore] = weakref.WeakSet()


def _close_in_child() -> None:
    """Close every open store in a freshly forked child.

    Otherwise the child would share the parent's lock, and a pool worker
    left behind by a killed server would refuse every restart.
    """
    for store in list(_OPEN_STORES):
        store.close()


os.register_at_fork(after_in_child=_close_in_child)


def _segment_name(number: int) -> str:
    return f"journal-{number:06d}.log"


def _segment_numbers(root: Path) -> list[int]:
    """The journal segments under *root*, oldest first.

    Raises
    ------
    repro.exceptions.ServiceError
        If *root* holds job directories of the directory-per-job layout.
    """
    numbers: list[int] = []
    old: list[str] = []
    for entry in os.scandir(root):
        match = _SEGMENT_NAME.fullmatch(entry.name)
        if match:
            numbers.append(int(match[1]))
        elif entry.is_dir() and entry.name.partition("-")[0].isdigit():
            old.append(entry.name)
    if old:
        old.sort()
        names = ", ".join(old[:5]) + (", ..." if len(old) > 5 else "")
        raise ServiceError(
            f"{root} holds {len(old)} job directories of the directory-per-job "
            f"store layout ({names}); this store reads journal segments only "
            f"— finish or move those jobs before serving from {root}"
        )
    return sorted(numbers)


def _records(path: Path) -> Iterator[tuple[dict[str, Any], int, int]]:
    """``(header, payload offset, end offset)`` of each whole record of one
    segment, in order, stopping at a torn last record."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        offset = 0
        while True:
            line = handle.readline()
            if not line.endswith(b"\n"):
                return  # end of segment, or a torn header
            try:
                header = json.loads(line)
                length = header.get("n")
            except (ValueError, AttributeError) as exc:
                raise ServiceError(
                    f"{path}: corrupt journal record at byte {offset}"
                ) from exc
            start = offset + len(line)
            end = start if length is None else start + length + 1
            if end > size:
                return  # a torn payload
            if length is not None:
                handle.seek(end)
            yield header, start, end
            offset = end


def _header(fields: dict[str, Any]) -> bytes:
    return json.dumps(fields, separators=(",", ":")).encode("ascii") + b"\n"


def job_records(root: str | Path, job_id: str) -> list[tuple[str, dict[str, Any]]]:
    """The journal records of one job, read without the writer lock.

    A live server's store can be inspected this way: a torn last record
    (one being written) is skipped, nothing is truncated, and a segment
    deleted meanwhile is passed over.  Records written before the job's
    latest ``create`` belong to an evicted or re-appended copy and are
    left out, as the store itself does on open.

    Parameters
    ----------
    root : path-like
        The store root.
    job_id : str
        The job to show.

    Returns
    -------
    list of (str, dict)
        ``(segment file name, record header)`` pairs in journal order;
        empty for an unknown or evicted job id.
    """
    root = Path(root)
    found: list[tuple[str, dict[str, Any]]] = []
    for number in _segment_numbers(root):
        name = _segment_name(number)
        try:
            for header, _, _ in _records(root / name):
                if header.get("id") != job_id:
                    continue
                if header["type"] == "create":
                    found = []
                elif not found:
                    continue
                found.append((name, header))
        except FileNotFoundError:
            continue
    return found


class JobRecord:
    """One job as the store holds it (resume / inspection view).

    Attributes
    ----------
    job_id : str
        The job id (``{seq:06d}-{key[:12]}``).
    kind : str
        The job kind recorded at submit time.
    request : JobRequest or None
        The re-validated submit payload of a ``queued`` / ``running``
        job; ``None`` for a terminal job, which never runs again.
    content_key : str
        The dedup key recorded at submit time.
    state : str
        The last persisted state.
    detail : str or None
        Failure message / cancellation reason, when present.
    """

    __slots__ = ("job_id", "kind", "request", "content_key", "state", "detail")

    def __init__(
        self,
        job_id: str,
        kind: str,
        request: JobRequest | None,
        content_key: str,
        state: str,
        detail: str | None,
    ) -> None:
        self.job_id = job_id
        self.kind = kind
        self.request = request
        self.content_key = content_key
        self.state = state
        self.detail = detail


class _Entry:
    """The store's index of one job: its last state and payload locations."""

    __slots__ = ("kind", "key", "state", "detail", "create", "result", "trace")

    def __init__(self, kind: str, key: str, create: _Location) -> None:
        self.kind = kind
        self.key = key
        self.state = "queued"
        self.detail: str | None = None
        self.create = create
        self.result: _Location | None = None
        self.trace: _Location | None = None


class JobStore:
    """Journal-backed persistence for the service's jobs.

    Parameters
    ----------
    root : path-like
        The jobs directory; created (with parents) if missing.  Its
        segments are replayed once, here.
    on_evict : callable, optional
        Called with the ids of the finished jobs a segment deletion
        evicts (see the module docstring).

    Raises
    ------
    repro.exceptions.ServiceError
        If another store holds *root*, or *root* holds job directories of
        the directory-per-job layout.

    Notes
    -----
    Only one thread (the service's event loop) may write.  Call
    :meth:`close` to release the root.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        on_evict: Callable[[list[str]], None] | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._on_evict = on_evict
        self._jobs: dict[str, _Entry] = {}
        self._segments: dict[int, int] = {}  # segment number -> descriptor
        self._next_sequence = 1
        self._active = self._fd = -1  # the active segment, appended to
        self._size = 0
        self._lock = os.open(self.root, os.O_RDONLY)
        _OPEN_STORES.add(self)
        try:
            try:
                fcntl.flock(self._lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ServiceError(
                    f"job store {self.root} is open in another writer"
                ) from None
            self._replay()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the segments and release the root (idempotent)."""
        _OPEN_STORES.discard(self)
        for fd in self._segments.values():
            os.close(fd)
        self._segments.clear()
        self._fd = -1
        if self._lock >= 0:
            os.close(self._lock)
            self._lock = -1

    # -- journal -------------------------------------------------------
    def _replay(self) -> None:
        numbers = _segment_numbers(self.root)
        end = 0
        for number in numbers:
            path = self.root / _segment_name(number)
            self._segments[number] = os.open(path, os.O_RDWR | os.O_APPEND)
            end = 0
            for header, start, end in _records(path):
                self._apply(number, header, start)
            if end < os.fstat(self._segments[number]).st_size:
                os.ftruncate(self._segments[number], end)
        if numbers:
            self._active = numbers[-1]
            self._fd = self._segments[self._active]
            self._size = end
        else:
            self._start_segment(1)

    def _apply(self, number: int, header: dict[str, Any], start: int) -> None:
        """Fold one replayed record into the index."""
        record = header["type"]
        if record == "segment":
            self._next_sequence = max(self._next_sequence, header["next"])
            return
        job_id = header["id"]
        if record == "create":
            self._jobs[job_id] = _Entry(
                header["kind"], header["key"], (number, start, header["n"])
            )
            sequence = int(job_id.partition("-")[0]) + 1
            self._next_sequence = max(self._next_sequence, sequence)
            return
        entry = self._jobs.get(job_id)
        if entry is None:  # evicted: its create went with a deleted segment
            return
        if record == "state":
            entry.state = header["state"]
            entry.detail = header.get("detail")
        else:
            setattr(entry, record, (number, start, header["n"]))

    def _start_segment(self, number: int) -> None:
        path = self.root / _segment_name(number)
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL
        fd = os.open(path, flags, 0o644)
        self._segments[number] = fd
        self._active, self._fd, self._size = number, fd, 0
        self._write(_header({"type": "segment", "next": self._next_sequence}))

    def _write(self, data: bytes) -> int:
        """Append *data* to the active segment; its offset there."""
        offset = self._size
        try:
            written = os.write(self._fd, data)
            while written < len(data):
                written += os.write(self._fd, data[written:])
        except BaseException:
            os.ftruncate(self._fd, offset)  # never leave a torn record behind
            raise
        self._size = offset + len(data)
        return offset

    def _append(
        self,
        fields: dict[str, Any],
        payload: bytes | None = None,
        *,
        roll: bool = True,
    ) -> _Location:
        """Append one record; the location of its payload (empty if none)."""
        if payload is None:
            header = data = _header(fields)
            length = 0
        else:
            length = len(payload)
            header = _header({**fields, "n": length})
            data = b"".join((header, payload, b"\n"))
        if roll and self._size + len(data) > SEGMENT_BYTES:
            self._roll()
        offset = self._write(data)
        return (self._active, offset + len(header), length)

    def _roll(self) -> None:
        """Open the next segment, deleting the oldest beyond the budget."""
        self._start_segment(self._active + 1)
        while len(self._segments) > MAX_SEGMENTS:
            self._drop_oldest()

    def _drop_oldest(self) -> None:
        oldest = min(self._segments)
        evicted: list[str] = []
        for job_id, entry in list(self._jobs.items()):
            if entry.create[0] != oldest:
                continue
            if entry.state in TERMINAL_STATES:
                del self._jobs[job_id]
                evicted.append(job_id)
            else:
                self._reappend(job_id, entry)
        os.close(self._segments.pop(oldest))
        os.unlink(self.root / _segment_name(oldest))
        if evicted and self._on_evict is not None:
            self._on_evict(evicted)

    def _reappend(self, job_id: str, entry: _Entry) -> None:
        """Copy a live job's whole image into the active segment."""
        create = {"type": "create", "id": job_id, "kind": entry.kind, "key": entry.key}
        entry.create = self._copy(create, entry.create)
        if entry.state != "queued":
            self._append(
                {"type": "state", "id": job_id, "state": entry.state}, roll=False
            )
        if entry.result is not None:
            entry.result = self._copy({"type": "result", "id": job_id}, entry.result)
        if entry.trace is not None:
            entry.trace = self._copy({"type": "trace", "id": job_id}, entry.trace)

    def _copy(self, fields: dict[str, Any], location: _Location) -> _Location:
        return self._append(fields, self._read(location), roll=False)

    def _read(self, location: _Location) -> bytes:
        number, offset, length = location
        return os.pread(self._segments[number], length, offset)

    def _entry(self, job_id: str) -> _Entry:
        entry = self._jobs.get(job_id)
        if entry is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return entry

    # -- creation ------------------------------------------------------
    def create(
        self, request: JobRequest, content_key: str, line: bytes | None = None
    ) -> str:
        """Persist a new job in state ``queued`` and return its id.

        One ``create`` record; the id's sequence comes from the store's
        counter, so nothing is listed or opened per job.

        Parameters
        ----------
        request : JobRequest
            The validated submission.
        content_key : str
            The dedup key under the server's execution identity.
        line : bytes, optional
            The submit message as received, stored verbatim; without it
            the request's payload is encoded as a submit message.

        Returns
        -------
        str
            The minted job id (``{seq:06d}-{key[:12]}``).
        """
        job_id = f"{self._next_sequence:06d}-{content_key[:12]}"
        if line is None:
            line = encode_message({"op": "submit", "job": request.payload})
        fields = {
            "type": "create", "id": job_id, "kind": request.kind, "key": content_key,
        }
        location = self._append(fields, line.rstrip(b"\r\n"))
        self._next_sequence += 1
        self._jobs[job_id] = _Entry(request.kind, content_key, location)
        return job_id

    # -- status --------------------------------------------------------
    def write_status(
        self, job_id: str, state: str, detail: str | None = None
    ) -> None:
        """Persist a state transition (one ``state`` record).

        Parameters
        ----------
        job_id : str
            The job to update.
        state : str
            One of :data:`repro.serve.protocol.JOB_STATES`.
        detail : str, optional
            Failure / cancellation detail.
        """
        if state not in JOB_STATES:
            raise ServiceError(f"unknown job state {state!r}")
        entry = self._entry(job_id)
        fields = {"type": "state", "id": job_id, "state": state}
        if detail is not None:
            fields["detail"] = detail
        self._append(fields)
        entry.state, entry.detail = state, detail

    def read_status(self, job_id: str) -> dict[str, Any]:
        """The persisted status object of one job.

        Parameters
        ----------
        job_id : str
            The job to read.

        Returns
        -------
        dict
            ``{"state": ...}`` plus ``"detail"`` when one was recorded.
        """
        entry = self._entry(job_id)
        status: dict[str, Any] = {"state": entry.state}
        if entry.detail is not None:
            status["detail"] = entry.detail
        return status

    # -- artifacts -----------------------------------------------------
    def write_result_text(self, job_id: str, text: str) -> None:
        """Persist the result payload text (the replay currency).

        Parameters
        ----------
        job_id : str
            The finished job.
        text : str
            The result's ``to_json()`` text, stored verbatim.
        """
        entry = self._entry(job_id)
        entry.result = self._append(
            {"type": "result", "id": job_id}, text.encode("utf-8")
        )

    def read_result_text(self, job_id: str) -> str | None:
        """The stored result text, or ``None`` if the job never finished."""
        location = self._entry(job_id).result
        return None if location is None else self._read(location).decode("utf-8")

    def write_trace_text(self, job_id: str, text: str) -> None:
        """Persist the job-level span tree (one ``trace`` record).

        Parameters
        ----------
        job_id : str
            The finished job.
        text : str
            The trace's ``to_json()`` text.
        """
        entry = self._entry(job_id)
        entry.trace = self._append(
            {"type": "trace", "id": job_id}, text.encode("utf-8")
        )

    def read_trace_text(self, job_id: str) -> str | None:
        """The stored trace text, or ``None`` when absent."""
        location = self._entry(job_id).trace
        return None if location is None else self._read(location).decode("utf-8")

    # -- resume --------------------------------------------------------
    def load(self, job_id: str) -> JobRecord:
        """One job as the store holds it.

        Parameters
        ----------
        job_id : str
            The job id.

        Returns
        -------
        JobRecord
            The record; only a ``queued`` / ``running`` job's stored
            submit line is re-validated into :attr:`JobRecord.request`.

        Raises
        ------
        repro.exceptions.ServiceError
            For an unknown (or evicted) id, or a stored submit line that
            no longer validates.
        """
        entry = self._entry(job_id)
        request = None
        if entry.state not in TERMINAL_STATES:
            try:
                request = JobRequest.from_dict(
                    decode_message(self._read(entry.create))["job"]
                )
            except (KeyError, ValueError) as exc:
                raise ServiceError(
                    f"job {job_id!r} no longer validates: {exc}"
                ) from exc
        return JobRecord(
            job_id=job_id,
            kind=entry.kind,
            request=request,
            content_key=entry.key,
            state=entry.state,
            detail=entry.detail,
        )

    def iter_jobs(self) -> list[JobRecord]:
        """Every job in the store, in id (= submission) order.

        A ``queued`` / ``running`` job whose stored submit line no longer
        validates (a later release may check more) can never run: it is
        journalled ``failed`` with the validation message and listed so.

        Returns
        -------
        list of JobRecord
            One record per job (see :meth:`load`).
        """
        records: list[JobRecord] = []
        for job_id in sorted(self._jobs):
            if job_id not in self._jobs:
                continue  # evicted by a roll of the journalling below
            try:
                records.append(self.load(job_id))
            except ServiceError as exc:
                self.write_status(job_id, "failed", str(exc))
                records.append(self.load(job_id))
        return [record for record in records if record.job_id in self._jobs]
