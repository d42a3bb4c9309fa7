"""Span recording around the program's layer boundaries.

The traced run replaces selected functions of ``src/repro`` with thin
wrappers (:func:`install`) that time each call and hand a
:class:`SpanRecord` to a :class:`Recorder`.  Nothing under ``src/``
changes: the wrappers are module-attribute swaps, and :meth:`Installed.remove`
puts every original object back.

Spans are kept in memory and written out when the run ends.  Each span
carries the identifier of the benchmark op it belongs to, so one op's
spans can be followed across layers (and, for the service workload,
across the client and server processes, where the job id links them).

The per-layer numbers come from :func:`self_times`: a span's self time is
its duration minus the part of that interval its child spans cover.  The
span tree is rebuilt from the intervals alone, per thread, which also lets
the program's own span trees (``ExecutionInfo.trace``) be merged in with
:meth:`Recorder.add_program_trace`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
import functools
import importlib
import threading
import time
from typing import Any

#: Layer of each span name the program emits in ``ExecutionInfo.trace``.
PROGRAM_SPAN_LAYERS = {
    "sorter": "properties",
    "apply_test_set": "properties",
    "simulate": "faults.simulation",
    "matrix": "faults.simulation",
    "dictionary": "faults.diagnosis",
    "resolution": "faults.diagnosis",
    "adaptive_order": "faults.diagnosis",
}


def program_span_layer(name: str) -> str:
    """The layer a program span belongs to (``session.*`` roots are ``api``)."""
    if name.startswith("session."):
        return "api"
    return PROGRAM_SPAN_LAYERS.get(name, "unknown")


class SpanRecord:
    """One timed call: layer, name, raw clock interval, op id and thread."""

    __slots__ = ("layer", "name", "start", "end", "op", "thread")

    def __init__(
        self,
        layer: str,
        name: str,
        start: float,
        end: float,
        op: Any = None,
        thread: int = 0,
    ) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.end = end
        self.op = op
        self.thread = thread

    @property
    def seconds(self) -> float:
        """Duration of the span."""
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "layer": self.layer, "name": self.name, "start": self.start,
            "end": self.end, "op": self.op, "thread": self.thread,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> SpanRecord:
        """Inverse of :meth:`to_dict`."""
        return cls(
            payload["layer"], payload["name"], payload["start"],
            payload["end"], payload.get("op"), payload.get("thread", 0),
        )


class Recorder:
    """An in-memory span sink shared by every wrapper of a traced run.

    The op a span belongs to is, in order of preference, the one the
    wrapper derived from the call itself (``op_of``), or the calling
    thread's current op (:meth:`set_op`).  A span that has neither stays
    pending on its thread and takes the op of the next span on that thread
    that has one - on the server, the message-decoding spans of a
    submission are claimed by the ``submit`` span that returns its job id.
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._local = threading.local()

    def set_op(self, op: Any) -> None:
        """Set the calling thread's current op (``None`` clears it)."""
        self._local.op = op

    def current_op(self) -> Any:
        """The calling thread's current op, or ``None``."""
        return getattr(self._local, "op", None)

    def record(
        self, layer: str, name: str, start: float, end: float, op: Any = None
    ) -> SpanRecord:
        """Store one span (see the class docstring for its op)."""
        if op is None:
            op = self.current_op()
        span = SpanRecord(layer, name, start, end, op, threading.get_ident())
        self.spans.append(span)
        pending = getattr(self._local, "pending", None)
        if pending is None:
            pending = self._local.pending = []
        if op is None:
            pending.append(span)
        elif pending:
            for earlier in pending:
                earlier.op = op
            pending.clear()
        return span

    def add_program_trace(self, trace: Any, op: Any = None) -> None:
        """Merge a :class:`repro.observe.Trace` recorded in this process.

        Program spans keep their raw ``perf_counter`` interval, so they nest
        with the wrapper spans by interval containment.
        """
        if trace is None:
            return
        stack = list(trace.roots)
        while stack:
            span = stack.pop()
            start, end = span.interval
            self.record(program_span_layer(span.name), span.name, start, end, op)
            stack.extend(span.children)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Every span, JSON-ready."""
        return [span.to_dict() for span in self.spans]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WrapSpec:
    """One function to time: ``module:attr`` (``attr`` may be ``Class.method``).

    ``op_of(args, kwargs, result)`` may derive the span's op from the call.
    ``after(recorder, args, kwargs, result, span)`` runs once the span is
    stored (used to merge the program's own trace of a Session call).
    """

    module: str
    attr: str
    layer: str
    name: str
    op_of: Callable[..., Any] | None = None
    after: Callable[..., None] | None = None


def _wrap(fn: Callable[..., Any], recorder: Recorder, spec: WrapSpec):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.record(spec.layer, spec.name, start, clock())
            raise
        end = clock()
        op = spec.op_of(args, kwargs, result) if spec.op_of else None
        span = recorder.record(spec.layer, spec.name, start, end, op)
        if spec.after is not None:
            spec.after(recorder, args, kwargs, result, span)
        return result

    wrapper.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
    return wrapper


class Installed:
    """The wrappers of one :func:`install` call; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._restore: list[tuple[Any, str, Any]] = []

    def remove(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> Installed:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()


def install(recorder: Recorder, specs: Iterable[WrapSpec]) -> Installed:
    """Replace each spec's function by a timing wrapper.

    Class attributes are swapped on the class itself (``classmethod`` /
    ``staticmethod`` descriptors are rebuilt around the wrapper), module
    functions on the module that *calls* them - the spec names the
    importing module, because ``from x import f`` binds a second name.
    """
    specs = list(specs)
    # Import every module before swapping anything: a module imported
    # after a swap would bind the wrapper under its own name and keep it.
    for spec in specs:
        importlib.import_module(spec.module)
    installed = Installed()
    try:
        for spec in specs:
            owner: Any = importlib.import_module(spec.module)
            *path, name = spec.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(_wrap(raw.__func__, recorder, spec))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(_wrap(raw.__func__, recorder, spec))
            else:
                replacement = _wrap(raw, recorder, spec)
            installed._restore.append((owner, name, raw))
            setattr(owner, name, replacement)
    except BaseException:
        installed.remove()
        raise
    return installed


# ----------------------------------------------------------------------
# Self time and the per-layer breakdown
# ----------------------------------------------------------------------
def self_times(spans: Sequence[SpanRecord]) -> list[tuple[SpanRecord, float]]:
    """Each span with its self time: duration minus what its children cover.

    The tree is rebuilt per thread from the intervals: a span is a child of
    the innermost earlier span whose interval contains it.  Children of one
    span never overlap on a single thread, so their durations simply add.
    """
    by_thread: dict[int, list[SpanRecord]] = defaultdict(list)
    for span in spans:
        by_thread[span.thread].append(span)
    out: list[tuple[SpanRecord, float]] = []
    for group in by_thread.values():
        group.sort(key=lambda s: (s.start, -s.end))
        covered: dict[int, float] = defaultdict(float)
        stack: list[SpanRecord] = []
        for span in group:
            while stack and not (span.start >= stack[-1].start
                                 and span.end <= stack[-1].end):
                stack.pop()
            if stack:
                covered[id(stack[-1])] += span.seconds
            stack.append(span)
        out.extend((span, span.seconds - covered[id(span)]) for span in group)
    return out


def layer_breakdown(
    spans: Sequence[SpanRecord],
) -> tuple[dict[str, float], dict[str, float]]:
    """Self seconds summed per layer and per ``layer.name``."""
    per_layer: dict[str, float] = defaultdict(float)
    per_name: dict[str, float] = defaultdict(float)
    for span, own in self_times(spans):
        per_layer[span.layer] += own
        per_name[f"{span.layer}.{span.name}"] += own
    return dict(per_layer), dict(per_name)
