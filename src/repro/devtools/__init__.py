"""Developer tooling: static analysis and runtime sanitizers.

Two complementary halves:

:mod:`repro.devtools.check`
    An AST-based checker (``python -m repro.devtools.check``) enforcing
    the project's structural invariants — RPR001 (no allocating numpy in
    ``@allocation_free`` functions), RPR002 (engine names only in the
    registry), RPR004 (no fork/pickle hazards in worker-shipped
    objects), RPR005 (numpydoc docstrings on the public surface) and
    RPR006–RPR008 (see :mod:`repro.devtools.builtin`).
:mod:`repro.devtools.sanitize`
    :func:`~repro.devtools.sanitize.assert_allocation_free`, a
    tracemalloc-based context manager proving at runtime what RPR001
    cannot see statically.

This package is for development and CI only — nothing in ``repro``
proper imports it.
"""

from .findings import Finding, is_suppressed, parse_noqa
from .rules import FileContext, Rule, all_rules, get_rule, register_rule
from .sanitize import (
    AllocationError,
    AllocationTrace,
    assert_allocation_free,
    trace_allocations,
)

__all__ = [
    "Finding",
    "parse_noqa",
    "is_suppressed",
    "FileContext",
    "Rule",
    "register_rule",
    "all_rules",
    "get_rule",
    "AllocationError",
    "AllocationTrace",
    "trace_allocations",
    "assert_allocation_free",
]
