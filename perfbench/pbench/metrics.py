"""The metric catalogue and the per-layer metrics of the in-process workloads.

``END_TO_END`` and ``PER_LAYER`` list every metric with its unit and
direction; ``BENCHMARK.json`` at the repository root carries the same
lists (a self-test keeps them equal).  Per-layer times are self seconds
per op of the traced phase; counters are exact per seed, summed over the
first whole round of ops (which every run completes).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from .runner import Phase, Sample, unattributed_fraction
from .tracing import SpanRecord, layer_breakdown

#: (name, unit, better) of the end-to-end metrics (tracing off).
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better) of the per-layer metrics (traced run).
PER_LAYER = (
    ("core.vectors_s", "s", "lower"),
    ("core.evaluate_s", "s", "lower"),
    ("properties.check_s", "s", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.restore_s", "s", "lower"),
    ("cache.lookup_s", "s", "lower"),
    ("cache.reused_comparators", "count", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.stored_bytes", "B", "lower"),
    ("faults.enumerate_s", "s", "lower"),
    ("faults.enumerate_setup_s", "s", "lower"),
    ("faults.simulate_s", "s", "lower"),
    ("faults.ns_per_stage_block", "ns", "lower"),
    ("faults.evaluated_stage_blocks", "count", "lower"),
    ("faults.pruned_stage_blocks", "count", "higher"),
    ("faults.prune_ratio", "ratio", "higher"),
    ("faults.dropped_faults", "count", "higher"),
    ("faults.converged_faults", "count", "higher"),
    ("diagnosis.adaptive_order_s", "s", "lower"),
    ("diagnosis.dictionary_s", "s", "lower"),
    ("diagnosis.resolution_s", "s", "lower"),
    ("api.session_self_s", "s", "lower"),
    ("api.serialize_s", "s", "lower"),
    ("api.deserialize_s", "s", "lower"),
    ("serve.validate_s", "s", "lower"),
    ("serve.jobstore_s", "s", "lower"),
    ("serve.service_s", "s", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.execute_ms_p50", "ms", "lower"),
    ("serve.overhead_ms_p50", "ms", "lower"),
    ("serve.jobs_dir_bytes", "B", "lower"),
    ("serve.dedup_frac", "ratio", "higher"),
    ("serve.request_bytes_p50", "B", "lower"),
    ("serve.response_bytes_p50", "B", "lower"),
    ("bench.op_s", "s", "lower"),
    ("bench.unattributed_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: CacheStats fields that are gauges (state after the call), not deltas.
_GAUGES = ("stored_bytes", "entries")


def with_units(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    """``{name: {"value", "unit"}}`` in catalogue order."""
    return {
        name: {"value": values[name], "unit": UNITS[name]}
        for name, _, _ in END_TO_END + PER_LAYER
        if name in values
    }


def window_counters(
    samples: Sequence[Sample], window: int, counters
) -> dict[str, int]:
    """Counters summed over the first *window* ops (gauges: last value)."""
    totals: dict[str, int] = {}
    for sample in samples[:window]:
        if sample.error is not None:
            continue
        for name, value in counters(sample.output).items():
            if name in _GAUGES:
                totals[name] = value
            else:
                totals[name] = totals.get(name, 0) + value
    return totals


def in_process_layer_metrics(
    workload: Any,
    traced: Phase,
    untraced: Phase,
    setup_spans: Sequence[SpanRecord],
) -> dict[str, float]:
    """Per-layer metrics of an in-process workload (service ones read 0)."""
    n_ops = len(traced.samples)
    layers, names = layer_breakdown(traced.spans)
    setup_layers, _ = layer_breakdown(setup_spans)

    def per_op(value: float) -> float:
        return value / n_ops if n_ops else 0.0

    window = window_counters(traced.samples, workload.count_window, workload.counters)
    hits = sum(window.get(k, 0) for k in (
        "prefix_hits", "prefix_partial_hits", "verdict_hits", "input_hits",
        "memo_hits"))
    misses = sum(window.get(k, 0) for k in (
        "prefix_misses", "verdict_misses", "input_misses", "memo_misses"))
    all_evaluated = sum(
        workload.counters(s.output).get("evaluated_stage_blocks", 0)
        for s in traced.completed
    )
    simulate = layers.get("faults.simulation", 0.0)
    evaluated = window.get("evaluated_stage_blocks", 0)
    pruned = window.get("pruned_stage_blocks", 0)
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update({
        "core.vectors_s": per_op(names.get("core.vectors", 0.0)),
        "core.evaluate_s": per_op(names.get("core.evaluate", 0.0)),
        "properties.check_s": per_op(layers.get("properties", 0.0)),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.restore_s": per_op(names.get("cache.restore", 0.0)),
        "cache.lookup_s": per_op(names.get("cache.lookup", 0.0)
                                 + names.get("cache.key", 0.0)),
        "cache.reused_comparators": window.get("reused_comparators", 0),
        "cache.evictions": window.get("evictions", 0),
        "cache.stored_bytes": window.get("stored_bytes", 0),
        "faults.enumerate_s": per_op(layers.get("faults.injection", 0.0)),
        "faults.enumerate_setup_s": setup_layers.get("faults.injection", 0.0),
        "faults.simulate_s": per_op(simulate),
        "faults.ns_per_stage_block": (
            simulate / all_evaluated * 1e9 if all_evaluated else 0.0
        ),
        "faults.evaluated_stage_blocks": evaluated,
        "faults.pruned_stage_blocks": pruned,
        "faults.prune_ratio": pruned / (evaluated + pruned) if evaluated + pruned else 0.0,
        "faults.dropped_faults": window.get("dropped_faults", 0),
        "faults.converged_faults": window.get("converged_faults", 0),
        "diagnosis.adaptive_order_s": per_op(
            names.get("faults.diagnosis.adaptive_order", 0.0)),
        "diagnosis.dictionary_s": per_op(
            names.get("faults.diagnosis.dictionary", 0.0)),
        "diagnosis.resolution_s": per_op(
            names.get("faults.diagnosis.resolution", 0.0)),
        "api.session_self_s": per_op(names.get("api.session", 0.0)),
        "bench.op_s": per_op(sum(s.seconds for s in traced.samples)),
        "bench.unattributed_frac": unattributed_fraction(traced.spans),
        "bench.trace_overhead_frac": 1.0 - (
            len(traced.completed) / traced.elapsed
        ) / (len(untraced.completed) / untraced.elapsed),
    })
    return values
