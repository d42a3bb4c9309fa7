"""Documentation build smoke checks.

Three guarantees: (a) every public symbol of :mod:`repro.parallel` and
:mod:`repro.faults` carries a docstring and the modules render cleanly
under :mod:`pydoc` (the CI lint job runs the same sweep), (b) the
committed documentation artefacts — ``EXPERIMENTS.md``,
``docs/ARCHITECTURE.md``, ``docs/CACHING.md`` — exist and still mention
what the README links them for, so a stale regeneration fails fast, and
(c) the example scripts under ``examples/`` run to completion.
"""

from __future__ import annotations

import importlib
import inspect
import os
from pathlib import Path
import pydoc
import subprocess
import sys

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every example script (``serve_client.py`` boots a server).
EXAMPLES = sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))

DOCUMENTED_MODULES = [
    "repro.parallel",
    "repro.parallel.chunking",
    "repro.parallel.config",
    "repro.parallel.executor",
    "repro.parallel.fault_shard",
    "repro.parallel.pool",
    "repro.parallel.shm",
    "repro.faults",
    "repro.faults.models",
    "repro.faults.injection",
    "repro.faults.simulation",
    "repro.faults.coverage",
    "repro.faults.diagnosis",
    "repro.core.bitpacked",
    "repro.core.scratch",
    "repro.api",
    "repro.api.session",
    "repro.api.results",
    "repro.api.registry",
    "repro.cache",
    "repro.cache.keys",
    "repro.cache.store",
    "repro.cache.restore",
    "repro.observe",
    "repro.observe.metrics",
    "repro.observe.spans",
    "repro.api.serialize",
    "repro.serve",
    "repro.serve.protocol",
    "repro.serve.jobstore",
    "repro.serve.service",
    "repro.serve.client",
]


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_module_renders_under_pydoc(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()
    text = pydoc.render_doc(module)
    assert module_name.rsplit(".", 1)[-1] in text


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_every_public_symbol_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = []
    for name in exported:
        obj = getattr(module, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue  # constants document themselves via module comments
        doc = inspect.getdoc(obj)
        if not doc or len(doc.strip()) < 20:
            missing.append(name)
        if inspect.isclass(obj):
            for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                if meth_name.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                if not inspect.getdoc(meth):
                    missing.append(f"{name}.{meth_name}")
    assert not missing, (
        f"{module_name}: public symbols without (sufficient) docstrings: "
        f"{missing}"
    )


def test_experiments_report_is_committed_and_current():
    report = REPO_ROOT / "EXPERIMENTS.md"
    assert report.is_file(), "EXPERIMENTS.md must be committed (see README)"
    text = report.read_text()
    # The columns the README/ROADMAP advertise must actually be present.
    for marker in (
        "verify_seconds_bitpacked",
        "sim_seconds",
        "prune_ratio",
        "exhaustive-cube",
        "E11",
    ):
        assert marker in text, f"EXPERIMENTS.md lost the {marker!r} column"


def test_architecture_doc_is_committed_and_linked():
    doc = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    assert doc.is_file(), "docs/ARCHITECTURE.md must be committed"
    text = doc.read_text()
    for marker in (
        "fault_detection_matrix",
        "Dominated-state pruning",
        "PrefixStates",
        "CubeVectors",
        "Module map",
        "Session",
        "repro.api",
        # The fault-model / diagnosis section.
        "Fault models and diagnosis",
        "MultiFault",
        "BridgingFault",
        "IntermittentFault",
        "Fault dictionaries",
        "adaptive_test_order",
        "enumerate_multi_faults",
        # The observability section.
        "Observability",
        "repro.observe",
        "session.fault_matrix",
        "Counter lifecycle",
        "merge_packed",
        "set_observation_enabled",
        "RPR007",
        # The service-layer section: protocol, state machine, dedup key
        # anatomy, the job journal and crash-resume.
        "Service layer",
        "repro.serve",
        "newline-delimited JSON",
        "Job state machine",
        "Dedup key anatomy",
        "journal-NNNNNN.log",
        "Torn records",
        "fcntl.flock",
        "MAX_SEGMENTS",
        "jobs_evicted",
        "jobs_replayed",
        "jobs_resumed",
        "thread_safe=True",
        "RPR008",
    ):
        assert marker in text, f"docs/ARCHITECTURE.md lost {marker!r}"
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "EXPERIMENTS.md" in readme
    assert "Public API" in readme, "README lost the Public API section"
    assert "Session" in readme
    # The worked fault-dictionary example.
    for marker in (
        "Fault models and diagnosis",
        "session.diagnose(",
        "result.dictionary.lookup(",
        "result.test_order",
        "--fault-model",
    ):
        assert marker in readme, f"README lost the diagnosis example {marker!r}"
    # The span-trace export example.
    for marker in ("Observability", "--trace", "REPRO_TRACE", "execution.trace"):
        assert marker in readme, f"README lost the trace example {marker!r}"
    # The serve quickstart transcript.
    for marker in (
        "repro-networks serve",
        "serve --socket",
        "submit --socket",
        "status --socket",
        '"deduped": true',
        "examples/serve_client.py",
    ):
        assert marker in readme, f"README lost the serve quickstart {marker!r}"
    example = REPO_ROOT / "examples" / "serve_client.py"
    assert example.is_file(), "examples/serve_client.py must be committed"
    example_text = example.read_text()
    for marker in ("ServeClient", "decode_result", "shutdown"):
        assert marker in example_text, f"serve example lost {marker!r}"


def test_caching_doc_is_committed_and_linked():
    doc = REPO_ROOT / "docs" / "CACHING.md"
    assert doc.is_file(), "docs/CACHING.md must be committed (see README)"
    text = doc.read_text()
    # The contract's load-bearing sections, as linked from README and
    # ARCHITECTURE: key anatomy, prefix-hash reuse, eviction,
    # bit-identity and the negative advice.
    for marker in (
        "cube-sorted",
        "fault-any",
        "prefix_hashes",
        "acquire_prefix_states",
        "bit-identical",
        "least-recently-used",
        "RPR006",
        "When *not* to cache",
        "ResultCache",
        "CacheStats",
        "thread_safe=True",
        "repro.serve",
    ):
        assert marker in text, f"docs/CACHING.md lost {marker!r}"
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/CACHING.md" in readme, "README must link docs/CACHING.md"
    assert "cache=True" in readme
    architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    assert "CACHING.md" in architecture
    assert "repro.cache" in architecture


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    before = set(Path("/tmp").glob("repro-serve-demo-*"))
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / name)],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    # serve_client.py keeps its server's job store in a temporary directory.
    assert set(Path("/tmp").glob("repro-serve-demo-*")) <= before
