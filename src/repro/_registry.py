"""The engine names and the fault-model registry (implementation module).

The public face of this module is :mod:`repro.api.registry`; it lives
here, below the rest of the package, so that :mod:`repro.core.evaluation`
can read the engine names without importing the :mod:`repro.api` facade
(which itself imports the property checkers and the fault simulator — a
cycle otherwise).

:data:`EVALUATION_ENGINES` is the one place the engine names are spelt
out (``repro.devtools`` rule RPR002 flags any other tuple of them).  A
workload call routes itself by value domain — 0/1 work runs
``"bitpacked"``, everything else ``"vectorized"``
(:func:`repro.core.evaluation.route_engine`) — so an engine name is only
ever an explicit pin, for oracles and engine comparisons.  Fault models
are registered by name so tools can enumerate them
(:func:`fault_model_names`) without hard-coding the class list.

Not thread-safe: registration is expected at import time / test setup,
not concurrently with evaluation.
"""

from __future__ import annotations

from .exceptions import FaultModelError

__all__ = [
    "EVALUATION_ENGINES",
    "register_fault_model",
    "unregister_fault_model",
    "fault_model_names",
    "get_fault_model",
]

#: The batch-evaluation engines: the scalar oracle, the vectorised
#: kernel of arbitrary integer batches and the bit-packed kernel of 0/1
#: batches (see :mod:`repro.core.evaluation`).
EVALUATION_ENGINES = ("scalar", "vectorized", "bitpacked")

_FAULT_MODELS: dict[str, type] = {}


def register_fault_model(
    cls: type, *, name: str | None = None, replace: bool = False
) -> type:
    """Register a fault-model class under its name (default: ``cls.__name__``).

    The fault simulator already handles unknown :class:`repro.faults.models.Fault`
    subclasses through the generic ``fault.apply_to(network)`` fallback;
    registration makes the model *discoverable* — CLI tools and reports can
    enumerate :func:`fault_model_names` instead of hard-coding the class
    list.  Usable as a class decorator.
    """
    key = name if name is not None else cls.__name__
    if key in _FAULT_MODELS and not replace:
        raise FaultModelError(f"fault model {key!r} is already registered")
    _FAULT_MODELS[key] = cls
    return cls


def unregister_fault_model(name: str) -> None:
    """Remove a fault-model registration."""
    if name not in _FAULT_MODELS:
        raise FaultModelError(f"fault model {name!r} is not registered")
    del _FAULT_MODELS[name]


def fault_model_names() -> tuple[str, ...]:
    """The registered fault-model names, in registration order."""
    return tuple(_FAULT_MODELS)


def get_fault_model(name: str) -> type:
    """Look a fault model up by name, raising :class:`FaultModelError`."""
    cls = _FAULT_MODELS.get(name)
    if cls is None:
        raise FaultModelError(
            f"unknown fault model {name!r}; choose one of {fault_model_names()}"
        )
    return cls
