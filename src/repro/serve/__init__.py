"""repro.serve — the long-running verification service.

The service layer promotes the :class:`repro.api.Session` facade from
library to server: ``python -m repro.serve --socket PATH`` (or
``--port N``) accepts the five Session workloads as *jobs* over a
newline-delimited-JSON protocol, multiplexes them onto a bounded pool
of Sessions (each job runs in an executor thread, so the event loop
never blocks), **deduplicates** submissions by content hash, and
journals every job transition to an append-only log under ``jobs/`` so a
killed server resumes where it stopped — finished jobs replay from the
journal bit-identically, interrupted ones re-run.

The moving parts:

:mod:`repro.serve.protocol`
    Message framing, the :class:`JobRequest` model and the dedup
    content key (built from :mod:`repro.cache.keys` tokens).
:mod:`repro.serve.jobstore`
    The resumable job store: one append-only journal of segment files
    with a declared disk budget.
:mod:`repro.serve.service`
    :class:`VerificationService` (session pool, job state machine,
    server metrics) and the asyncio socket front end.
:mod:`repro.serve.client`
    :class:`ServeClient`, a blocking client used by the CLI's
    ``serve`` / ``submit`` / ``status`` subcommands, the examples and
    the tests.

See the "Service layer" section of ``docs/ARCHITECTURE.md`` for the
protocol reference, the job state machine and the dedup key anatomy.
"""

from __future__ import annotations

from .client import ServeClient
from .jobstore import JobStore
from .protocol import JOB_KINDS, JOB_STATES, JobRequest
from .service import SERVER_COUNTERS, VerificationService, serve

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "SERVER_COUNTERS",
    "JobRequest",
    "JobStore",
    "ServeClient",
    "VerificationService",
    "serve",
]
