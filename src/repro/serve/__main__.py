"""``python -m repro.serve`` — run the verification service.

Examples
--------
Serve on a unix socket with two sessions (each job runs on the kernel
of its value domain: bit-packed for 0/1 work, vectorised otherwise)::

    python -m repro.serve --socket /tmp/repro.sock --jobs ./jobs --pool 2

Serve on TCP port 7777 with a 60 s default per-job timeout::

    python -m repro.serve --port 7777 --jobs ./jobs --timeout 60

On startup the server prints one JSON line (``{"listening": ...}``) to
stdout once the socket accepts connections — scripts can wait for it —
then runs until a client sends ``{"op": "shutdown"}`` or the process is
terminated.  Jobs found in the jobs directory's journal are resumed
first; one server owns a jobs directory at a time.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from .._registry import EVALUATION_ENGINES
from ..cache.store import DEFAULT_MAX_BYTES
from .service import VerificationService, serve


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the server options on *parser*.

    Shared between this module's parser and the ``repro-networks serve``
    subcommand, so the two spellings stay flag-for-flag identical.

    Parameters
    ----------
    parser : argparse.ArgumentParser
        The parser (or subparser) to extend.
    """
    endpoint = parser.add_mutually_exclusive_group(required=True)
    endpoint.add_argument("--socket", help="unix-domain socket path")
    endpoint.add_argument("--port", type=int, help="TCP port")
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (with --port)"
    )
    parser.add_argument(
        "--jobs", default="jobs", help="job-store directory (default: jobs)"
    )
    parser.add_argument(
        "--pool", type=int, default=2,
        help="session pool size = max concurrent jobs (default: 2)",
    )
    parser.add_argument(
        "--engine", default=None, choices=EVALUATION_ENGINES,
        help="pin the engine of every pooled session (default: each job "
        "runs bitpacked on 0/1 work, vectorized otherwise)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per session (0 = one per CPU)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="words per streamed chunk (constant-memory streaming)",
    )
    parser.add_argument(
        "--no-prune", action="store_true",
        help="disable dominated-state pruning in the fault simulator",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="default per-job timeout in seconds (none by default)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=DEFAULT_MAX_BYTES,
        help="byte budget of the shared result cache",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser.

    Returns
    -------
    argparse.ArgumentParser
        Configured parser (exposed for the CLI's ``serve`` subcommand
        and the docs).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-running verification service over ndjson.",
    )
    add_serve_arguments(parser)
    return parser


def run_serve(args: argparse.Namespace) -> int:
    """Build the service from parsed *args* and serve until shutdown.

    Parameters
    ----------
    args : argparse.Namespace
        Arguments parsed by a :func:`add_serve_arguments` parser.

    Returns
    -------
    int
        Process exit code (130 on keyboard interrupt).
    """
    service = VerificationService(
        args.jobs,
        pool_size=args.pool,
        engine=args.engine,
        workers=args.workers,
        chunk_size=args.chunk_size,
        prune=not args.no_prune,
        timeout=args.timeout,
        cache_bytes=args.cache_bytes,
    )

    async def run() -> None:
        ready: asyncio.Event = asyncio.Event()

        async def announce() -> None:
            await ready.wait()
            endpoint = args.socket or f"{args.host}:{args.port}"
            print(json.dumps({"listening": endpoint}), flush=True)

        announcer = asyncio.ensure_future(announce())
        try:
            await serve(
                service,
                socket_path=args.socket,
                host=args.host,
                port=args.port,
                ready=ready,
            )
        finally:
            announcer.cancel()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; jobs remain resumable", file=sys.stderr)
        return 130
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments, build the service, serve forever.

    Parameters
    ----------
    argv : list of str, optional
        Argument vector (defaults to ``sys.argv[1:]``).

    Returns
    -------
    int
        Process exit code.
    """
    return run_serve(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
