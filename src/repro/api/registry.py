"""Public fault-model registry.

Fault models registered here (:func:`register_fault_model`) are
discoverable by name — the CLI's ``--fault-model`` choices and the
result wire format resolve them through :func:`get_fault_model` — and
the simulator itself accepts any :class:`repro.faults.models.Fault`
subclass through its generic fallback.

The implementation lives in :mod:`repro._registry` (kept below the rest
of the package so the core layer can read the engine names without
importing the facade); this module re-exports it unchanged.
"""

from __future__ import annotations

from .._registry import (
    fault_model_names,
    get_fault_model,
    register_fault_model,
    unregister_fault_model,
)

__all__ = [
    "register_fault_model",
    "unregister_fault_model",
    "fault_model_names",
    "get_fault_model",
]
