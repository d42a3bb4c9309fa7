"""Self-tests of the benchmark's helpers (``perfbench/pbench``).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path
import sys
import threading

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

from pbench import stats  # noqa: E402
from pbench.inprocess import WORKLOADS  # noqa: E402
from pbench.layers import in_process_specs  # noqa: E402
from pbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from pbench.serve_mixed import BLOCK, JobMix  # noqa: E402
from pbench.tracing import (  # noqa: E402
    Recorder,
    SpanRecord,
    install,
    layer_breakdown,
    self_times,
)
from repro.cache.keys import network_token  # noqa: E402
from repro.serve.protocol import JobRequest  # noqa: E402


def _network_tokens(workload) -> list:
    networks = []
    for ops in workload.rounds():
        networks += [op.args[0] for op in ops]
        break
    networks += [row for rows in getattr(workload, "mutants", []) for row in rows]
    return [network_token(network) for network in networks]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    cls = WORKLOADS[name]
    first, again, other = cls(7), cls(7), cls(8)
    for workload in (first, again, other):
        workload.session = workload.new_session()
    try:
        assert _network_tokens(first) == _network_tokens(again)
        assert _network_tokens(first) != _network_tokens(other)
    finally:
        for workload in (first, again, other):
            workload.close()


def test_same_seed_same_jobs():
    def keys(seed):
        mix = JobMix(seed, jobs=5 * len(BLOCK))
        return [JobRequest.from_dict(job).content_key() for _, job in mix.jobs]

    first = keys(3)
    assert first == keys(3)
    assert first != keys(4)
    # Exactly the planned resubmissions repeat an earlier job.
    assert len(first) - len(set(first)) == 5


def test_tail_percentile():
    assert stats.tail_percentile([1.0] * 19) is None
    values = [float(v) for v in range(1, 101)]
    pct, value = stats.tail_percentile(values)
    assert pct == pytest.approx(90.0)
    assert sum(v > value for v in values) == stats.TAIL_SAMPLES
    assert stats.percentile(values, 50.0) == pytest.approx(50.5)


def test_self_time_on_a_synthetic_tree():
    spans = [
        SpanRecord("bench", "op", 0.0, 10.0, op=1, thread=1),
        SpanRecord("api", "session", 1.0, 9.0, op=1, thread=1),
        SpanRecord("core", "vectors", 2.0, 5.0, op=1, thread=1),
        SpanRecord("core", "evaluate", 5.0, 8.0, op=1, thread=1),
        SpanRecord("cache", "lookup", 6.0, 7.0, op=1, thread=1),
        # Another thread's span overlaps in time but is no child.
        SpanRecord("serve", "jobstore", 0.5, 9.5, op=2, thread=2),
    ]
    own = {span.name: value for span, value in self_times(spans)}
    assert own == {
        "op": 2.0, "session": 2.0, "vectors": 3.0, "evaluate": 2.0,
        "lookup": 1.0, "jobstore": 9.0,
    }
    per_layer, per_name = layer_breakdown(spans)
    assert per_layer["core"] == 5.0
    assert per_name["core.evaluate"] == 2.0
    assert sum(per_layer.values()) == pytest.approx(10.0 + 9.0)


def test_pending_spans_take_the_next_op():
    recorder = Recorder()
    recorder.record("serve", "validate", 0.0, 1.0)
    recorder.record("serve", "submit", 0.0, 2.0, op="job-1")
    recorder.record("serve", "encode", 2.0, 3.0)
    assert [span.op for span in recorder.spans] == ["job-1", "job-1", None]

    seen = []
    thread = threading.Thread(
        target=lambda: seen.append(recorder.record("x", "y", 0.0, 1.0).op)
    )
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and seen == [None]


def test_wrappers_are_removed_afterwards():
    import importlib

    specs = in_process_specs()

    def current(spec):
        owner = importlib.import_module(spec.module)
        *path, name = spec.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner.__dict__[name]

    originals = [current(spec) for spec in specs]
    recorder = Recorder()
    with install(recorder, specs):
        assert all(current(s) is not o for s, o in zip(specs, originals))
        from repro.api import Session
        from repro.constructions import batcher_sorting_network

        Session(engine="bitpacked").verify(batcher_sorting_network(6))
        assert {span.layer for span in recorder.spans} >= {"api", "core", "properties"}
    assert all(current(s) is o for s, o in zip(specs, originals))
    count = len(recorder.spans)
    from repro.api import Session
    from repro.constructions import batcher_sorting_network

    Session(engine="bitpacked").verify(batcher_sorting_network(6))
    assert len(recorder.spans) == count


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in PER_LAYER
    ]
    assert {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]} == {
        tuple(entry) for entry in END_TO_END
    }
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(WORKLOADS) | {"serve_mixed"}
