"""A small synchronous client for the verification service.

:class:`ServeClient` speaks the newline-delimited-JSON protocol over a
unix or TCP socket using one blocking socket per client — deliberately
free of asyncio, so scripts, tests and the CLI ``submit`` / ``status``
subcommands stay ordinary sequential code::

    from repro.serve import ServeClient
    from repro.serve.protocol import JobRequest
    from repro.constructions import batcher_sorting_network

    client = ServeClient(socket_path="/tmp/repro.sock")
    request = JobRequest.build(
        "fault-coverage", batcher_sorting_network(8),
        vectors={"cube": 8}, faults={"single": True},
    )
    response = client.submit(request.to_dict(), wait=True)
    result = client.decode_result(response)   # a CoverageReport
    client.close()

``decode_result`` turns a response's ``result_json`` text back into the
typed :mod:`repro.api` result object — the service ships exactly the
``to_json`` wire format, so the client ends a round trip holding the
same dataclass a local :class:`repro.api.Session` call would return.
"""

from __future__ import annotations

import socket
from typing import Any

from ..exceptions import ServiceError
from .protocol import decode_message, encode_message

__all__ = ["ServeClient"]


class ServeClient:
    """A blocking protocol client (one connection, sequential requests).

    Parameters
    ----------
    socket_path : str, optional
        Unix-domain socket path of a running server.
    host, port :
        TCP endpoint, used when *socket_path* is not given.
    timeout : float or None, optional
        Socket timeout in seconds for connect and replies; ``None``
        (default) blocks indefinitely — submit-and-wait responses can
        legitimately take as long as the job itself.
    """

    def __init__(
        self,
        *,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float | None = None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ServiceError(
                "ServeClient needs exactly one of socket_path / port"
            )
        if socket_path is not None:
            self._socket = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._socket.settimeout(timeout)
            self._socket.connect(socket_path)
        else:
            self._socket = socket.create_connection(
                (host, port), timeout=timeout
            )
        self._buffer = bytearray()

    # -- plumbing ------------------------------------------------------
    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one message and return the server's response object.

        Parameters
        ----------
        message : dict
            The request (must carry an ``"op"``).

        Returns
        -------
        dict
            The decoded response.

        Raises
        ------
        repro.exceptions.ServiceError
            When the connection drops or the server answers
            ``{"ok": false}``.
        """
        self._socket.sendall(encode_message(message))
        line = self._read_line()
        response = decode_message(line)
        if not response.get("ok"):
            raise ServiceError(
                str(response.get("error", "unspecified server error"))
            )
        return response

    def _read_line(self) -> bytes:
        # Append in place and scan only the bytes each chunk adds, so a
        # multi-megabyte line costs linear time, not a copy and a rescan
        # of the whole buffer per chunk.
        buffer = self._buffer
        end = buffer.find(b"\n")
        while end < 0:
            scanned = len(buffer)
            chunk = self._socket.recv(65536)
            if not chunk:
                raise ServiceError("server closed the connection")
            buffer += chunk
            end = buffer.find(b"\n", scanned)
        line = bytes(buffer[:end])
        del buffer[: end + 1]
        return line

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self) -> ServeClient:
        """Context-manager entry (returns the client itself)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # -- operations ----------------------------------------------------
    def submit(
        self, job: dict[str, Any], *, wait: bool = False
    ) -> dict[str, Any]:
        """Submit one job payload.

        Parameters
        ----------
        job : dict
            A :meth:`repro.serve.protocol.JobRequest.to_dict` payload.
        wait : bool, optional
            Block until the job terminalises; the response then carries
            ``result_json`` (done) or ``detail`` (failed / cancelled).

        Returns
        -------
        dict
            ``{"job_id", "deduped", "state", ...}``.
        """
        return self.request({"op": "submit", "job": job, "wait": wait})

    def status(self) -> dict[str, Any]:
        """The server status: counters, job states, configuration.

        Returns
        -------
        dict
            The ``status`` endpoint payload.
        """
        return self.request({"op": "status"})

    def job(self, job_id: str) -> dict[str, Any]:
        """The status object of one job.

        Parameters
        ----------
        job_id : str
            The job to describe.

        Returns
        -------
        dict
            Id, kind, state, content key, optional detail.
        """
        return self.request({"op": "job", "job_id": job_id})

    def jobs(self) -> list[dict[str, Any]]:
        """Status objects of every job the server knows.

        Returns
        -------
        list of dict
            One :meth:`job` payload per job, in id order.
        """
        return list(self.request({"op": "jobs"})["jobs"])

    def result(self, job_id: str, *, wait: bool = True) -> dict[str, Any]:
        """Fetch a job's result (waiting for completion by default).

        Parameters
        ----------
        job_id : str
            The job whose result to fetch.
        wait : bool, optional
            Block until terminal (default); ``False`` returns the
            current state immediately.

        Returns
        -------
        dict
            ``{"state", ...}`` with ``result_json`` once done.
        """
        return self.request({"op": "result", "job_id": job_id, "wait": wait})

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued or running job.

        Parameters
        ----------
        job_id : str
            The job to cancel.

        Returns
        -------
        dict
            ``{"job_id", "state"}``.
        """
        return self.request({"op": "cancel", "job_id": job_id})

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to shut down gracefully.

        Returns
        -------
        dict
            ``{"state": "shutting-down"}``.
        """
        return self.request({"op": "shutdown"})

    # -- decoding ------------------------------------------------------
    @staticmethod
    def decode_result(response: dict[str, Any]) -> Any:
        """The typed result object carried by a response.

        Parameters
        ----------
        response : dict
            A response holding ``result_json`` (submit-and-wait or
            :meth:`result`).

        Returns
        -------
        VerificationResult, TestSetResult, FaultMatrixResult, \
CoverageReport or DiagnosisResult
            The deserialised result.

        Raises
        ------
        repro.exceptions.ServiceError
            When the response carries no result payload.
        """
        from ..api.serialize import result_from_dict
        import json

        text = response.get("result_json")
        if text is None:
            raise ServiceError(
                f"response carries no result (state={response.get('state')!r})"
            )
        return result_from_dict(json.loads(text))
