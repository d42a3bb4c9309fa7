"""Start ``repro.serve`` for the benchmark, optionally timing its layers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py --socket S --jobs DIR \\
        --engine bitpacked --pool 1 [--spans-out FILE]

Without ``--spans-out`` this is exactly ``python -m repro.serve``.  With
it, the launcher wraps the server's layer entry points
(:func:`pbench.layers.server_specs`) before calling
``repro.serve.__main__.main``, keeps every span in memory and writes them
to FILE as JSON when the server shuts down.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    spans_out = None
    if "--spans-out" in argv:
        at = argv.index("--spans-out")
        spans_out = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
    from repro.serve.__main__ import main as serve_main

    if spans_out is None:
        return serve_main(argv)
    from pbench.layers import ServerOps, server_specs
    from pbench.tracing import Recorder, install

    recorder = Recorder()
    with install(recorder, server_specs(ServerOps())):
        code = serve_main(argv)
    tmp = spans_out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(recorder.to_dicts(), handle)
    os.replace(tmp, spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
