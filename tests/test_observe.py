"""The :mod:`repro.observe` instrumentation layer: counters, spans, traces.

Three layers of pinning:

* unit behaviour of :class:`~repro.observe.Metrics` (fixed schema,
  pack/merge wire format) and :class:`~repro.observe.Span` /
  :class:`~repro.observe.Trace` (with-block nesting = tree, JSON round
  trip, the process-wide kill switch);
* structural invariants of real :class:`repro.api.Session` traces —
  every child span's interval nests inside its parent's;
* the counter-identity guarantee: the totals a trace exports are
  bit-for-bit the legacy :class:`~repro.faults.SimulationStats` /
  :class:`~repro.cache.CacheStats` numbers, for every registered fault
  model, whether the work ran serial, sharded across a real
  :class:`~repro.parallel.pool.WorkerPool`, or replayed from a warm
  cache.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api as api
from repro._registry import fault_model_names
from repro.constructions import batcher_sorting_network
from repro.core.evaluation import all_binary_words_array
from repro.faults import SimulationStats, enumerate_model_faults
from repro.faults.simulation import _fault_detection_matrix_impl
from repro.observe import (
    Metrics,
    Trace,
    observation_enabled,
    set_observation_enabled,
)
from repro.parallel import ExecutionConfig
from tests.strategies import criteria, fault_universes, networks

import numpy as np

# ----------------------------------------------------------------------
# Metrics: fixed-schema counters and the pack/merge wire format
# ----------------------------------------------------------------------
class TestMetrics:
    def test_schema_and_counting(self):
        m = Metrics(("hits", "misses"), initial={"hits": 2})
        assert m.names == ("hits", "misses")
        assert m.get("hits") == 2 and m.get("misses") == 0
        m.increment("hits")
        m.increment("misses", 5)
        m.set("hits", 10)
        assert m.as_dict() == {"hits": 10, "misses": 5}
        m.reset()
        assert m.pack() == (0, 0)

    def test_unknown_names_raise(self):
        m = Metrics(("a",))
        with pytest.raises(KeyError):
            m.get("b")
        with pytest.raises(KeyError):
            m.set("b", 1)
        with pytest.raises(KeyError):
            m.increment("b")

    def test_duplicate_schema_rejected(self):
        with pytest.raises(ValueError):
            Metrics(("a", "a"))

    def test_pack_merge_roundtrip(self):
        a = Metrics(("x", "y", "z"), initial={"x": 1, "y": 2, "z": 3})
        b = Metrics(("x", "y", "z"))
        b.merge_packed(a.pack())
        b.merge_packed(a.pack())
        assert b.pack() == (2, 4, 6)
        with pytest.raises(ValueError):
            b.merge_packed((1, 2))

    def test_merge_requires_matching_schema(self):
        a = Metrics(("x", "y"), initial={"x": 1})
        b = Metrics(("x", "y"), initial={"y": 4})
        a.merge(b)
        assert a.as_dict() == {"x": 1, "y": 4}
        with pytest.raises(ValueError):
            a.merge(Metrics(("x",)))

    def test_equality_and_repr(self):
        a = Metrics(("x",), initial={"x": 7})
        b = Metrics(("x",), initial={"x": 7})
        assert a == b
        assert a != Metrics(("x",))
        assert (a == object()) is False or (a == object()) is NotImplemented
        assert "x" in repr(a)


# ----------------------------------------------------------------------
# Spans and traces: nesting, round trip, kill switch
# ----------------------------------------------------------------------
def assert_nested(span, parent=None):
    """Recursively assert the span-tree interval invariant."""
    start, end = span.interval
    assert end >= start and span.seconds >= 0.0
    if parent is not None:
        p_start, p_end = parent.interval
        assert p_start <= start and end <= p_end
    for child in span.children:
        assert_nested(child, span)


class TestSpans:
    def test_with_nesting_builds_the_tree(self):
        trace = Trace()
        with trace.span("outer", kind="demo") as outer:
            with trace.span("first"):
                pass
            with trace.span("second") as second:
                with trace.span("leaf"):
                    pass
        assert trace.root is outer
        assert [c.name for c in outer.children] == ["first", "second"]
        assert [c.name for c in second.children] == ["leaf"]
        assert outer.meta == {"kind": "demo"}
        assert_nested(outer)

    def test_add_counters_accumulates(self):
        trace = Trace()
        with trace.span("work") as span:
            span.add_counters({"faults": 3})
            span.add_counters({"faults": 2, "hits": 1})
        assert span.counters == {"faults": 5, "hits": 1}

    def test_empty_trace(self):
        trace = Trace()
        assert trace.root is None
        assert trace.epoch == 0.0
        assert trace.to_dict() == {"spans": []}

    def test_export_rebases_to_epoch(self):
        trace = Trace()
        with trace.span("root"):
            with trace.span("child"):
                pass
        payload = trace.to_dict()
        assert payload["spans"][0]["start"] == 0.0
        child = payload["spans"][0]["children"][0]
        assert child["start"] >= 0.0

    def test_json_round_trip_is_bit_stable(self):
        trace = Trace()
        with trace.span("root", engine="bitpacked") as root:
            with trace.span("phase"):
                pass
            root.add_counters({"faults": 4})
        rebuilt = Trace.from_json(trace.to_json())
        assert rebuilt == trace
        assert rebuilt.to_json() == trace.to_json()
        again = Trace.from_json(rebuilt.to_json())
        assert again.to_json() == rebuilt.to_json()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_read_seconds_survive_re_export(self, data):
        """``from_dict`` keeps each span's ``seconds`` as read: a child at
        ``start`` 0.1 with ``seconds`` 0.2 must not come back as
        0.20000000000000004 (``start + seconds - start``)."""
        floats = st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        )

        def span(start, depth):
            children = [
                span(data.draw(floats), depth + 1)
                for _ in range(data.draw(st.integers(0, 2 if depth < 2 else 0)))
            ]
            return {
                "name": f"s{depth}",
                "start": start,
                "seconds": data.draw(floats),
                "meta": {},
                "counters": {},
                "children": children,
            }

        # An exported trace starts its first root at 0.0 (the epoch).
        payload = {"spans": [span(0.0, 0)]}
        assert Trace.from_dict(payload).to_dict() == payload
        payload["spans"][0]["children"].append(span(0.1, 1) | {"seconds": 0.2})
        assert Trace.from_dict(payload).to_dict() == payload
        info = api.ExecutionInfo(
            engine_requested=None,
            engine_effective="bitpacked",
            workers=1,
            chunk_words=None,
            grid_shape=None,
            seconds=payload["spans"][0]["seconds"],
            trace=Trace.from_dict(payload),
        )
        text = info.to_json()
        assert api.ExecutionInfo.from_json(text).to_json() == text

    def test_trace_equality_and_repr(self):
        trace = Trace()
        with trace.span("only"):
            pass
        assert (trace == object()) is False or trace.__eq__(object()) is NotImplemented
        assert "only" in repr(trace)
        assert "only" in repr(trace.root)

    def test_kill_switch_hands_out_inert_spans(self):
        assert observation_enabled()
        previous = set_observation_enabled(False)
        try:
            assert previous is True
            assert not observation_enabled()
            trace = Trace()
            with trace.span("dark") as span:
                span.add_counters({"faults": 1})
            assert trace.roots == []
            assert span.counters == {}
            assert span.seconds == 0.0
        finally:
            set_observation_enabled(previous)
        assert observation_enabled()


# ----------------------------------------------------------------------
# Real session traces: structure and counter identity
# ----------------------------------------------------------------------
def sim_counters(trace):
    """The simulation-counter subset of a trace's root counters."""
    schema = SimulationStats().metrics.names
    return {k: v for k, v in trace.root.counters.items() if k in schema}


def test_session_trace_structure_and_cache_counters():
    network = batcher_sorting_network(6)
    faults = enumerate_model_faults(network, "ReversedComparatorFault")
    vectors = all_binary_words_array(6)
    with api.Session(engine="bitpacked", cache=True) as s:
        cold = s.fault_matrix(network, faults, vectors)
        warm = s.fault_matrix(network, faults, vectors)
    for result in (cold, warm):
        trace = result.execution.trace
        assert trace is not None
        root = trace.root
        assert root.name == "session.fault_matrix"
        assert [c.name for c in root.children] == ["simulate"]
        assert_nested(root)
        assert result.execution.seconds == root.seconds
        # The root counters are bit-for-bit the legacy stats numbers.
        assert sim_counters(trace) == result.stats.metrics.as_dict()
        cache_delta = result.execution.cache
        for name in type(cache_delta)._COUNTERS:
            assert root.counters[f"cache.{name}"] == getattr(cache_delta, name)
    assert warm.execution.cache.verdict_hits > 0
    # Round trip through JSON preserves the real trace exactly.
    rebuilt = Trace.from_json(cold.execution.trace.to_json())
    assert rebuilt.to_json() == cold.execution.trace.to_json()


def test_verify_trace_nests_the_property_phase():
    network = batcher_sorting_network(8)
    with api.Session(engine="bitpacked") as s:
        result = s.verify(network, "sorter")
    trace = result.execution.trace
    assert trace.root.name == "session.verify"
    assert [c.name for c in trace.root.children] == ["sorter"]
    assert trace.root.meta["property"] == "sorter"
    assert_nested(trace.root)


@given(network=networks(min_lines=3, max_lines=6), data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_trace_counters_match_serial_and_warm_cache(network, data):
    """For every registered model: the counters a session trace exports
    equal the stats of an independent serial run, cold and warm-cache
    alike."""
    name, faults = data.draw(fault_universes(network), label="universe")
    if not faults:
        return
    criterion = data.draw(criteria, label="criterion")
    vectors = all_binary_words_array(network.n_lines)
    serial_stats = SimulationStats()
    serial = _fault_detection_matrix_impl(
        network, faults, vectors, criterion=criterion,
        engine="bitpacked", stats=serial_stats,
    )
    with api.Session(engine="bitpacked", cache=True) as s:
        cold = s.fault_matrix(network, faults, vectors, criterion=criterion)
        warm = s.fault_matrix(network, faults, vectors, criterion=criterion)
    assert np.array_equal(cold.matrix, serial), name
    expected = serial_stats.metrics.as_dict()
    assert sim_counters(cold.execution.trace) == expected, name
    assert sim_counters(warm.execution.trace) == expected, name


def test_trace_counters_match_on_a_real_shard_pool():
    """Sharded across two worker processes, every registered model's trace
    exports exactly the serial counter totals."""
    network = batcher_sorting_network(5)
    vectors = all_binary_words_array(5)
    with api.Session(engine="bitpacked", workers=2, chunk_size=16) as s:
        for name in fault_model_names():
            faults = enumerate_model_faults(network, name)
            sharded = s.fault_matrix(network, faults, vectors)
            serial_stats = SimulationStats()
            serial = _fault_detection_matrix_impl(
                network, faults, vectors, engine="bitpacked",
                config=ExecutionConfig(max_workers=1, chunk_size=16),
                stats=serial_stats,
            )
            assert np.array_equal(sharded.matrix, serial), name
            assert sim_counters(sharded.execution.trace) == (
                serial_stats.metrics.as_dict()
            ), name
            assert_nested(sharded.execution.trace.root)


def test_disabled_capture_yields_no_trace():
    network = batcher_sorting_network(4)
    previous = set_observation_enabled(False)
    try:
        with api.Session(engine="bitpacked") as s:
            result = s.verify(network, "sorter")
    finally:
        set_observation_enabled(previous)
    assert result.verdict is True
    assert result.execution.trace is None
    assert result.execution.seconds == 0.0
