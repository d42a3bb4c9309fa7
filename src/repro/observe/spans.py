"""Spans, traces and timer capture: the structural half of :mod:`repro.observe`.

A :class:`Trace` owns a tree of :class:`Span` context managers.  Entering
a span captures a monotonic start time (``time.perf_counter``) and pushes
it onto the trace's stack, so spans entered while another span is open
become its children — the nesting of ``with`` blocks *is* the span tree.
Leaving a span captures the end time.  Spans carry free-form ``meta``
(strings, ints — anything JSON-serialisable) and integer ``counters``
attached after the work ran, typically a :meth:`repro.observe.Metrics.as_dict`
snapshot.

:meth:`Trace.to_json` exports the tree (span starts are re-based to the
trace epoch so traces from different processes compare cleanly) and
:meth:`Trace.from_json` reconstructs it exactly — the round trip is
bit-stable, which the test suite pins.

Instrumentation can be globally disabled with
:func:`set_observation_enabled` — ``Trace.span`` then hands out a shared
inert span that never reads the clock, which is how
``benchmarks/parallel_smoke.py`` measures the instrumentation overhead
of the :class:`repro.api.Session` facade.
"""

from __future__ import annotations

import json
import time
from collections.abc import Mapping
from types import TracebackType
from typing import Any

__all__ = [
    "Span",
    "Trace",
    "observation_enabled",
    "set_observation_enabled",
]

_ENABLED = True


def observation_enabled() -> bool:
    """Whether span timing is currently captured (the default).

    Returns
    -------
    bool
        ``True`` unless :func:`set_observation_enabled` turned capture
        off for this process.
    """
    return _ENABLED


def set_observation_enabled(enabled: bool) -> bool:
    """Turn span capture on or off process-wide.

    With capture off, :meth:`Trace.span` returns a shared inert span:
    no clock reads, no tree growth — the instrumented code path becomes
    a handful of attribute lookups.  Counters outside spans (e.g. a
    :class:`repro.observe.Metrics` registry) keep counting.

    Parameters
    ----------
    enabled : bool
        The new state.

    Returns
    -------
    bool
        The previous state, so callers can restore it.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


class Span:
    """One timed region: a node of a :class:`Trace`'s span tree.

    Use as a context manager via :meth:`Trace.span`; entering captures
    the start time, leaving the end time.  A span records its ``name``,
    JSON-serialisable ``meta`` key/values given at creation, integer
    ``counters`` attached via :meth:`add_counters`, and its ``children``
    (spans entered while it was open).

    Attributes
    ----------
    name : str
        The span's label (e.g. ``"session.verify"``).
    meta : dict
        Free-form JSON-serialisable annotations (engine name, n, ...).
    counters : dict of str to int
        Counter totals attached after the work ran.
    children : list of Span
        Sub-spans, in entry order.

    Examples
    --------
    >>> from repro.observe import Trace
    >>> trace = Trace()
    >>> with trace.span("outer") as outer:
    ...     with trace.span("inner"):
    ...         pass
    >>> [child.name for child in outer.children]
    ['inner']
    """

    __slots__ = ("name", "meta", "counters", "children", "_start", "_end",
                 "_seconds", "_trace", "_live")

    def __init__(
        self,
        name: str,
        *,
        meta: Mapping[str, Any] | None = None,
        trace: Trace | None = None,
        live: bool = True,
    ) -> None:
        self.name = name
        self.meta: dict[str, Any] = dict(meta) if meta else {}
        self.counters: dict[str, int] = {}
        self.children: list[Span] = []
        self._start = 0.0
        self._end = 0.0
        self._seconds: float | None = None  # as read by from_dict
        self._trace = trace
        self._live = live

    def __enter__(self) -> Span:
        """Start the span: push onto the owning trace, read the clock."""
        if self._live:
            if self._trace is not None:
                self._trace._push(self)
            self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        """Finish the span: read the clock, pop from the owning trace."""
        if self._live:
            self._end = time.perf_counter()
            if self._trace is not None:
                self._trace._pop(self)

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open).

        A span rebuilt by :meth:`from_dict` keeps the ``seconds`` it read,
        so its re-export matches the input bit for bit (``start +
        seconds - start`` need not round back to ``seconds``).
        """
        if self._seconds is not None:
            return self._seconds
        return self._end - self._start if self._end >= self._start else 0.0

    @property
    def interval(self) -> tuple[float, float]:
        """``(start, end)`` in raw monotonic-clock coordinates."""
        return (self._start, self._end)

    def add_counters(self, counters: Mapping[str, int]) -> None:
        """Accumulate integer counter totals onto this span.

        Repeated names add up, so a span can absorb several
        :meth:`repro.observe.Metrics.as_dict` snapshots.  On an inert
        span (capture disabled) this is a no-op.

        Parameters
        ----------
        counters : mapping of str to int
            Counter totals to fold in.
        """
        if not self._live:
            return
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def to_dict(self, epoch: float = 0.0) -> dict[str, Any]:
        """The span subtree as JSON-ready nested dicts.

        Parameters
        ----------
        epoch : float, optional
            Clock origin subtracted from every start time (callers pass
            :attr:`Trace.epoch` so exported starts are trace-relative).

        Returns
        -------
        dict
            Keys ``name``, ``start``, ``seconds``, ``meta``,
            ``counters`` and ``children`` (recursively the same shape).
        """
        return {
            "name": self.name,
            "start": self._start - epoch,
            "seconds": self.seconds,
            "meta": dict(self.meta),
            "counters": dict(self.counters),
            "children": [child.to_dict(epoch) for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> Span:
        """Rebuild a span subtree from :meth:`to_dict` output.

        Parameters
        ----------
        payload : mapping
            A dict of the :meth:`to_dict` shape.

        Returns
        -------
        Span
            A detached span (no owning trace) with identical timings,
            meta, counters and children.
        """
        span = cls(str(payload["name"]), meta=payload.get("meta") or {})
        span._start = float(payload.get("start", 0.0))
        span._seconds = float(payload.get("seconds", 0.0))
        span._end = span._start + span._seconds
        span.counters = dict(payload.get("counters") or {})
        span.children = [
            cls.from_dict(child) for child in payload.get("children") or []
        ]
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, seconds={self.seconds:.6f}, "
            f"children={len(self.children)})"
        )


class Trace:
    """A tree of :class:`Span` timings for one logical operation.

    The trace owns a stack: :meth:`span` creates a span that, when
    entered, becomes a child of the innermost open span (or a new root).
    :class:`repro.api.Session` attaches one trace per workload call to
    :attr:`repro.api.ExecutionInfo.trace`; ``repro-networks --trace``
    writes it out via :meth:`to_json`.

    Attributes
    ----------
    roots : list of Span
        Top-level spans, in entry order (usually exactly one).

    Examples
    --------
    >>> from repro.observe import Trace
    >>> trace = Trace()
    >>> with trace.span("work", kind="demo"):
    ...     with trace.span("step"):
    ...         pass
    >>> trace.root.name, [c.name for c in trace.root.children]
    ('work', ['step'])
    >>> trace == Trace.from_json(trace.to_json())
    True
    """

    __slots__ = ("roots", "_stack")

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **meta: Any) -> Span:
        """A new span owned by this trace (enter it with ``with``).

        Parameters
        ----------
        name : str
            The span label.
        **meta
            JSON-serialisable annotations stored on the span.

        Returns
        -------
        Span
            The span context manager — or a shared inert span when
            :func:`observation_enabled` is off.
        """
        if not _ENABLED:
            return _DISABLED_SPAN
        return Span(name, meta=meta, trace=self)

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @property
    def root(self) -> Span | None:
        """The first root span, or ``None`` for an empty trace."""
        return self.roots[0] if self.roots else None

    @property
    def epoch(self) -> float:
        """Clock origin for export: the earliest root start (0.0 if empty)."""
        return min((s._start for s in self.roots), default=0.0)

    def to_dict(self) -> dict[str, Any]:
        """The whole trace as JSON-ready dicts (starts re-based to epoch)."""
        epoch = self.epoch
        return {"spans": [span.to_dict(epoch) for span in self.roots]}

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialise the span tree to JSON.

        Parameters
        ----------
        indent : int or None, optional
            Indentation passed to :func:`json.dumps` (default 2).

        Returns
        -------
        str
            A JSON document of the :meth:`to_dict` shape; feed it back
            through :meth:`from_json` for an exact round trip.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> Trace:
        """Rebuild a trace from :meth:`to_dict` output.

        Parameters
        ----------
        payload : mapping
            A dict with a ``"spans"`` list of span dicts.

        Returns
        -------
        Trace
            A trace whose re-export equals *payload* exactly.
        """
        trace = cls()
        trace.roots = [
            Span.from_dict(span) for span in payload.get("spans") or []
        ]
        return trace

    @classmethod
    def from_json(cls, text: str) -> Trace:
        """Rebuild a trace from a :meth:`to_json` document.

        Parameters
        ----------
        text : str
            The JSON document.

        Returns
        -------
        Trace
            The reconstructed trace.
        """
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"Trace(roots={[span.name for span in self.roots]!r})"


#: Shared inert span handed out while capture is disabled: never reads
#: the clock, never joins a tree, ignores counters.
_DISABLED_SPAN = Span("<disabled>", live=False)
