#!/usr/bin/env python
"""A complete round trip against the verification service.

Boots ``python -m repro.serve`` on a private unix socket, then uses
:class:`repro.serve.ServeClient` to:

1. submit a fault-coverage job (Batcher(8), the exhaustive cube, the
   classical single-fault universe) and decode the typed result;
2. submit the *identical* job again and watch it deduplicate — same job
   id, byte-identical ``result_json``, no second simulation;
3. read the server's counters, and the job's records in the store's
   journal with ``repro-networks job`` (it reads a live server's store
   without taking its lock);
4. shut the server down gracefully (the journal stays on disk — a
   restarted server would replay the finished job from it — until the
   example removes its temporary directory).

Run with::

    PYTHONPATH=src python examples/serve_client.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys
import tempfile

from repro.cli import main as repro_networks
from repro.constructions import batcher_sorting_network
from repro.serve import ServeClient
from repro.serve.protocol import JobRequest


def main() -> None:
    # /tmp keeps the socket path short (unix socket paths are limited to
    # about 100 bytes); the directory and the store in it go at the end.
    with tempfile.TemporaryDirectory(dir="/tmp", prefix="repro-serve-demo-") as tmp:
        round_trip(Path(tmp))


def round_trip(scratch: Path) -> None:
    socket_path = str(scratch / "serve.sock")
    jobs_dir = scratch / "jobs"

    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--socket", socket_path, "--jobs", str(jobs_dir),
            "--engine", "bitpacked", "--pool", "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    print("server:", server.stdout.readline().strip())

    network = batcher_sorting_network(8)
    job = JobRequest.build(
        "fault-coverage",
        network,
        vectors={"cube": network.n_lines},
        faults={"single": True},
    ).to_dict()

    with ServeClient(socket_path=socket_path) as client:
        first = client.submit(job, wait=True)
        report = ServeClient.decode_result(first)
        print(f"job {first['job_id']}: state={first['state']} "
              f"deduped={first['deduped']}")
        print(f"coverage={report.coverage:.4f} "
              f"({report.detected_faults}/{report.total_faults} faults, "
              f"engine={report.execution.engine_effective})")

        second = client.submit(job, wait=True)
        print(f"resubmitted: deduped={second['deduped']} "
              f"bit-identical={second['result_json'] == first['result_json']}")

        status = client.status()
        print("server metrics:",
              json.dumps(status["metrics"], sort_keys=True))

        print("journal records:")
        repro_networks(["job", "--jobs", str(jobs_dir), first["job_id"]])

        client.shutdown()

    print("server exit code:", server.wait(timeout=30))


if __name__ == "__main__":
    main()
