"""The resumable on-disk job store: one directory per job.

Layout (under the store root, typically ``jobs/``)::

    jobs/
      000001-61e3f2a40c9b/
        request.json   # verbatim submit payload + content key + kind
        status.json    # {"state", "detail"} — the state machine
        result.json    # the result's to_json() text, written once on success
        trace.json     # the job-level span tree (serve.job wrapping the run)

Every file is compact JSON (no indentation, so :func:`json.dumps` runs
its C encoder).  Writes are atomic (temp file + :func:`os.replace` in the
job directory), so a SIGKILL never leaves a half-written JSON behind — at
worst a job is still marked ``queued``/``running`` and is re-queued on
restart.  ``result.json`` is the replay currency: a finished job is
answered by returning the stored text *verbatim*, which is what makes
replayed results bit-identical to the first client's.

Job ids are ``{sequence:06d}-{content_key[:12]}``: the sequence makes
ids unique and sortable in submission order, the key fragment makes the
directory name say *what* the job computes.  The store scans its root
once, when constructed, for the highest sequence on disk; after that
:meth:`JobStore.create` mints ids from a counter and never lists the
directory, so creating a job costs the same at 10 jobs as at 10,000.

Resuming reads every job back (:meth:`JobStore.iter_jobs`), but only
``queued`` / ``running`` jobs are re-validated into a
:class:`~repro.serve.protocol.JobRequest` — they will run again.  A
terminal job is answered from its stored files, so its record carries
the kind and content key alone.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..exceptions import ServiceError
from .protocol import JOB_STATES, TERMINAL_STATES, JobRequest

__all__ = ["JobRecord", "JobStore"]


def _atomic_write(path: Path, data: bytes) -> None:
    """Write *data* to *path* through a same-directory temp file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _json_bytes(payload: dict[str, Any]) -> bytes:
    """Compact, key-sorted UTF-8 JSON (the C encoder's fast path)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


class JobRecord:
    """One job as read back from disk (resume / inspection view).

    Attributes
    ----------
    job_id : str
        The directory name.
    kind : str
        The job kind recorded at submit time.
    request : JobRequest or None
        The re-validated submit payload of a ``queued`` / ``running``
        job; ``None`` for a terminal job, which never runs again.
    content_key : str
        The dedup key recorded at submit time.
    state : str
        The persisted state (``queued`` when status.json is missing —
        the crash window between directory creation and the first
        status write).
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


class JobStore:
    """Directory-backed persistence for the service's jobs.

    Parameters
    ----------
    root : path-like
        The jobs directory; created (with parents) if missing.  Its
        highest job sequence is read once, here.

    Notes
    -----
    :meth:`create` increments a plain counter: only one thread (the
    service's event loop) may create jobs.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        highest = 0
        for entry in self.root.iterdir():
            head, _, _ = entry.name.partition("-")
            if head.isdigit():
                highest = max(highest, int(head))
        self._next_sequence = highest + 1

    # -- paths ---------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        """The directory of one job.

        Parameters
        ----------
        job_id : str
            A job id minted by :meth:`create`.

        Returns
        -------
        pathlib.Path
            ``root / job_id`` (not checked for existence).
        """
        return self.root / job_id

    # -- creation ------------------------------------------------------
    def create(self, request: JobRequest, content_key: str) -> str:
        """Persist a new job in state ``queued`` and return its id.

        The id's sequence comes from the store's counter, without
        listing the directory; an existing directory of that name (a
        second writer on the same root) raises :class:`FileExistsError`.

        Parameters
        ----------
        request : JobRequest
            The validated submission.
        content_key : str
            The dedup key under the server's execution identity.

        Returns
        -------
        str
            The minted job id (``{seq:06d}-{key[:12]}``).
        """
        job_id = f"{self._next_sequence:06d}-{content_key[:12]}"
        self._next_sequence += 1
        directory = self.job_dir(job_id)
        directory.mkdir()
        _atomic_write(
            directory / "request.json",
            _json_bytes(
                {
                    "content_key": content_key,
                    "kind": request.kind,
                    "payload": request.to_dict(),
                }
            ),
        )
        self.write_status(job_id, "queued")
        return job_id

    # -- status --------------------------------------------------------
    def write_status(
        self, job_id: str, state: str, detail: str | None = None
    ) -> None:
        """Atomically persist a state transition.

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
        payload: dict[str, Any] = {"state": state}
        if detail is not None:
            payload["detail"] = detail
        _atomic_write(self.job_dir(job_id) / "status.json", _json_bytes(payload))

    def read_status(self, job_id: str) -> dict[str, Any]:
        """The persisted status object of one job.

        Parameters
        ----------
        job_id : str
            The job to read.

        Returns
        -------
        dict
            ``{"state": ...}`` plus optional ``"detail"``; a missing
            file reads as ``queued`` (see :class:`JobRecord`).
        """
        path = self.job_dir(job_id) / "status.json"
        if not path.is_file():
            return {"state": "queued"}
        return json.loads(path.read_text(encoding="utf-8"))

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
        _atomic_write(
            self.job_dir(job_id) / "result.json", text.encode("utf-8")
        )

    def read_result_text(self, job_id: str) -> str | None:
        """The stored result text, or ``None`` if the job never finished."""
        path = self.job_dir(job_id) / "result.json"
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")

    def write_trace_text(self, job_id: str, text: str) -> None:
        """Persist the job-level span tree as ``trace.json``.

        Parameters
        ----------
        job_id : str
            The finished job.
        text : str
            The trace's ``to_json()`` text.
        """
        _atomic_write(
            self.job_dir(job_id) / "trace.json", text.encode("utf-8")
        )

    def read_trace_text(self, job_id: str) -> str | None:
        """The stored trace text, or ``None`` when absent."""
        path = self.job_dir(job_id) / "trace.json"
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")

    # -- resume --------------------------------------------------------
    def load(self, job_id: str) -> JobRecord:
        """Read one job back from disk.

        Parameters
        ----------
        job_id : str
            The directory name.

        Returns
        -------
        JobRecord
            The record; only a ``queued`` / ``running`` job's payload is
            re-validated into :attr:`JobRecord.request`.

        Raises
        ------
        repro.exceptions.ServiceError
            If the directory or its request.json is missing / corrupt.
        """
        path = self.job_dir(job_id) / "request.json"
        if not path.is_file():
            raise ServiceError(f"job {job_id!r} has no request.json")
        status = self.read_status(job_id)
        state = str(status.get("state", "queued"))
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            kind = str(data["kind"])
            content_key = str(data["content_key"])
            request = (
                None if state in TERMINAL_STATES
                else JobRequest.from_dict(data["payload"])
            )
        except (KeyError, ValueError) as exc:
            raise ServiceError(f"job {job_id!r} is corrupt: {exc}") from exc
        return JobRecord(
            job_id=job_id,
            kind=kind,
            request=request,
            content_key=content_key,
            state=state,
            detail=status.get("detail"),
        )

    def iter_jobs(self) -> list[JobRecord]:
        """Every loadable job on disk, in id (= submission) order.

        Corrupt directories are skipped — a crash can leave a job
        directory without request.json; such a job was never
        acknowledged, so dropping it is the correct resume behaviour.

        Returns
        -------
        list of JobRecord
            The surviving jobs.
        """
        records = []
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir():
                continue
            try:
                records.append(self.load(entry.name))
            except ServiceError:
                continue
        return records
