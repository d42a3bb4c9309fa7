"""The timed loop, the per-layer metrics and the host record.

A workload hands the runner its ops as *rounds*: lists of zero-argument
callables that are always run whole, so every run measures complete
rounds and the mix of op kinds in a run does not depend on where the
clock stopped.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
import gc
import os
import platform
import subprocess
import sys
import time
from typing import Any

from . import stats
from .tracing import Recorder, SpanRecord, self_times


@dataclass
class Op:
    """One prepared call ``call(*args, **kwargs)`` of a workload.

    ``key`` identifies the computation: two ops with equal keys must
    produce equal outputs, so the output check runs once per key.
    """

    kind: str
    key: Any
    call: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        """Make the call."""
        return self.call(*self.args, **self.kwargs)


@dataclass
class Sample:
    """One attempted op of a timed phase (``index`` is its op id)."""

    index: Any
    op: Op
    seconds: float
    output: Any = None
    error: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class Phase:
    """The outcome of one timed phase."""

    samples: list[Sample]
    elapsed: float
    spans: list[SpanRecord] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> list[Sample]:
        """Samples whose op returned normally."""
        return [s for s in self.samples if s.error is None]


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


def run_rounds(
    rounds: Iterable[Sequence[Op]],
    seconds: float,
    recorder: Recorder | None = None,
) -> Phase:
    """Run whole rounds until *seconds* have passed (GC stays enabled).

    With a *recorder*, every op gets a ``bench`` span named ``op:<kind>``
    and is the current op of every span recorded while it runs.
    """
    clock = time.perf_counter
    samples: list[Sample] = []
    gc.collect()
    start = clock()
    for ops in rounds:
        for op in ops:
            index = len(samples)
            if recorder is not None:
                recorder.set_op(index)
            t0 = clock()
            try:
                output, error = op.run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if recorder is not None:
                recorder.record("bench", f"op:{op.kind}", t0, t1, index)
                recorder.set_op(None)
            samples.append(Sample(index, op, t1 - t0, output, error))
        if clock() - start >= seconds:
            break
    return Phase(samples, clock() - start)


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced phase, plus their provenance.

    ``setup_s`` is added by the orchestrating process, which times set-up
    across several processes.
    """
    latencies = [s.seconds * 1000.0 for s in phase.samples]
    metrics: dict[str, dict[str, Any]] = {
        "ops_per_s": {"value": len(phase.completed) / phase.elapsed, "unit": "1/s"},
        "latency_p50_ms": {"value": stats.median(latencies), "unit": "ms"},
        "peak_rss_mb": {"value": phase.peak_rss_mb, "unit": "MiB"},
    }
    info: dict[str, Any] = {"ops": len(latencies), "elapsed_s": phase.elapsed}
    tail = stats.tail_percentile(latencies)
    if tail is not None:
        pct, value = tail
        metrics["latency_tail_ms"] = {"value": value, "unit": "ms"}
        info["latency_tail_percentile"] = pct
        info["latency_tail_samples_beyond"] = stats.TAIL_SAMPLES
    return metrics, info


def ops_by_kind(samples: Sequence[Sample]) -> dict[str, dict[str, float]]:
    """Op count and median latency (ms) per op kind."""
    grouped: dict[str, list[float]] = defaultdict(list)
    for sample in samples:
        grouped[sample.op.kind].append(sample.seconds * 1000.0)
    return {
        kind: {"ops": len(values), "latency_p50_ms": stats.median(values)}
        for kind, values in sorted(grouped.items())
    }


def breakdown_by_kind(
    spans: Sequence[SpanRecord],
    samples: Sequence[Sample],
    kind_of: dict[Any, str] | None = None,
) -> dict[str, dict[str, float]]:
    """Per op kind: mean op seconds and self seconds per layer and per
    ``layer.name``, per op.

    Spans are matched to ops by op id (``Sample.index``, plus any extra
    ids in *kind_of*, such as server-side job ids).
    """
    kinds = {s.index: s.op.kind for s in samples}
    kinds.update(kind_of or {})
    count: dict[str, int] = defaultdict(int)
    for sample in samples:
        count[sample.op.kind] += 1
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in self_times(spans):
        kind = kinds.get(span.op)
        if kind is None:
            continue
        totals[kind][span.layer] += own
        totals[kind][f"{span.layer}.{span.name}"] += own
        if span.layer == "bench":
            totals[kind]["op"] += span.seconds
    return {
        kind: {name: value / count[kind] for name, value in sorted(layers.items())}
        for kind, layers in sorted(totals.items())
    }


def unattributed_fraction(spans: Sequence[SpanRecord]) -> float:
    """Share of op wall time that no layer span covers (in-process ops)."""
    op_total = own_total = 0.0
    for span, own in self_times(spans):
        if span.layer == "bench":
            op_total += span.seconds
            own_total += own
    return own_total / op_total if op_total else 0.0


def git_sha(root: str) -> str | None:
    """The commit of the checkout at *root*, or ``None`` when *root* is
    not the top of a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    top, sha = lines
    return sha if os.path.realpath(top) == os.path.realpath(root) else None


def host_record() -> dict[str, Any]:
    """Interpreter, numpy and CPU facts recorded with every result."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
