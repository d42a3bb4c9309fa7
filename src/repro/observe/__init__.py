"""Structured instrumentation: spans, counters and timers in one place.

Every layer of the system that measures itself goes through this package:

* :class:`Trace` / :class:`Span` — nested wall-clock spans captured with
  the monotonic clock, exported as JSON (``Trace.to_json``) and attached
  to every :class:`repro.api.ExecutionInfo` as ``execution.trace``.
* :class:`Metrics` — fixed-schema integer counter registries.  The
  legacy stats classes (:class:`repro.faults.SimulationStats`,
  :class:`repro.cache.CacheStats`) are thin views over a ``Metrics``
  instance, and its ``pack()``/``merge_packed()`` tuple format is the
  single aggregation path across :class:`repro.parallel.pool.WorkerPool`
  workers and cache replays.
* :func:`set_observation_enabled` — process-wide kill switch used by the
  benchmark suite to price the instrumentation itself.

The package is dependency-free (stdlib only) so any layer — core,
cache, parallel workers — can import it without cycles.
"""

from .metrics import Metrics
from .spans import (
    Span,
    Trace,
    observation_enabled,
    set_observation_enabled,
)

__all__ = [
    "Metrics",
    "Span",
    "Trace",
    "observation_enabled",
    "set_observation_enabled",
]
