"""Helpers of the repository benchmark (``perfbench/run.py``).

Modules:

* :mod:`pbench.stats` - percentiles and the tail-percentile rule;
* :mod:`pbench.tracing` - the span recorder, function wrappers and the
  self-time / per-layer breakdown;
* :mod:`pbench.layers` - which functions of ``src/repro`` belong to which
  layer;
* :mod:`pbench.runner` - the timed loop, set-up timing and result assembly;
* :mod:`pbench.inprocess` - the three in-process workloads;
* :mod:`pbench.serve_mixed` - the service workload.
"""
