"""The built-in rule set: this repository's real invariants, mechanised.

====== =========================================================== ==========
Rule   Invariant                                                   Scope
====== =========================================================== ==========
RPR001 ``@allocation_free`` bodies never call allocating numpy     all files
       (``np.zeros``/``np.empty``/``.copy()``/... or a ufunc
       without ``out=``)
RPR002 engine names are never hard-coded as tuples outside         ``src``
       ``repro._registry`` — enumeration goes through the registry
RPR003 retired with the execution kwargs it guarded; the number   —
       is not reused
RPR004 task objects shipped to ``WorkerPool`` workers capture no   parallel
       unpicklable resources or shared mutable class state
RPR005 public functions in un-grandfathered modules carry          ``src``
       numpydoc docstrings
RPR006 fault-free prefix states are acquired through               ``src``
       ``repro.cache.acquire_prefix_states`` — direct
       ``PrefixStates.build(...)`` calls bypass the cache's
       incremental front end
RPR007 wall-clock reads (``time.perf_counter()``/``time.time``/    ``src``
       ``time.monotonic``...) happen only inside ``repro.observe``
       — everything else measures through spans
RPR008 no blocking calls (``time.sleep``, synchronous ``Session``  serve
       workloads, ``subprocess.run``) inside ``async def`` bodies
       — blocking work belongs in the session pool's executor
       threads, never on the event loop
====== =========================================================== ==========

RPR001 is deliberately conservative: it flags *calls* (``np.zeros(...)``,
``np.bitwise_and(...)`` without ``out=``, ``x.copy()``) including through
local ufunc aliases (``bxor = np.bitwise_xor``), but not operator
expressions (``a & b``) — flagging every BinOp would drown the rule in
noise.  The runtime sanitizer
(:func:`repro.devtools.sanitize.assert_allocation_free`) covers what the
AST cannot see; the two checks are paired by design.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .._registry import EVALUATION_ENGINES
from .findings import Finding
from .rules import FileContext, Rule, register_rule

__all__ = [
    "AllocationFreeRule",
    "EngineTupleRule",
    "WorkerShippingRule",
    "DocstringRule",
    "PrefixBuildRule",
    "RawClockRule",
    "AsyncBlockingRule",
]

# ----------------------------------------------------------------------
# RPR001 — no allocating numpy inside @allocation_free functions
# ----------------------------------------------------------------------

#: numpy module-level callables that allocate a fresh array.
_NP_ALLOCATING = frozenset(
    {
        "zeros", "ones", "empty", "full",
        "zeros_like", "ones_like", "empty_like", "full_like",
        "array", "asarray", "ascontiguousarray", "asfortranarray",
        "copy", "arange", "linspace", "concatenate", "stack",
        "hstack", "vstack", "dstack", "tile", "repeat", "where",
        "frombuffer", "fromiter", "packbits", "unpackbits",
        "nonzero", "flatnonzero", "unique", "sort", "argsort",
        "meshgrid", "pad", "insert", "delete", "append",
    }
)

#: numpy ufuncs that are fine *with* ``out=`` and allocate without it.
_NP_UFUNCS = frozenset(
    {
        "bitwise_and", "bitwise_or", "bitwise_xor", "bitwise_not",
        "invert", "left_shift", "right_shift",
        "logical_and", "logical_or", "logical_xor", "logical_not",
        "add", "subtract", "multiply", "divide", "true_divide",
        "floor_divide", "mod", "remainder", "power",
        "minimum", "maximum", "fmin", "fmax",
        "equal", "not_equal", "less", "less_equal",
        "greater", "greater_equal",
        "negative", "positive", "absolute", "abs", "sign",
        "exp", "log", "log2", "sqrt", "square",
    }
)

#: numpy callables that never allocate plane-sized arrays (reductions to
#: scalars, in-place copies) — allowed anywhere.
_NP_NEUTRAL = frozenset(
    {
        "copyto", "count_nonzero", "may_share_memory", "shares_memory",
        "can_cast", "result_type", "promote_types", "dtype",
        "any", "all", "uint64", "int64", "uint8", "int8", "bool_",
    }
)

#: Array methods that allocate a fresh array.
_ALLOCATING_METHODS = frozenset({"copy", "astype", "tolist", "flatten"})


def _numpy_aliases(tree: ast.Module) -> tuple[set[str], dict[str, str]]:
    """Module-level numpy import names.

    Returns ``(module_aliases, from_imports)`` — e.g. ``({"np"},
    {"bitwise_and": "bitwise_and"})`` for ``import numpy as np`` plus
    ``from numpy import bitwise_and``.
    """
    modules: set[str] = set()
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    modules.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return modules, names


def _is_allocation_free_def(node: ast.AST) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for deco in node.decorator_list:
        if isinstance(deco, ast.Name) and deco.id == "allocation_free":
            return True
        if isinstance(deco, ast.Attribute) and deco.attr == "allocation_free":
            return True
    return False


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


@register_rule
class AllocationFreeRule(Rule):
    """RPR001: no allocating numpy calls inside ``@allocation_free``."""

    id = "RPR001"
    summary = (
        "@allocation_free functions must not call allocating numpy "
        "(np.zeros/np.empty/.copy()/.astype()/ufuncs without out=)"
    )
    scope = "all"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Scan each decorated function for allocating numpy calls."""
        np_modules, np_names = _numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if _is_allocation_free_def(node):
                assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                yield from self._check_function(
                    ctx, node, np_modules, dict(np_names)
                )

    def _check_function(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        np_modules: set[str],
        np_names: dict[str, str],
    ) -> Iterator[Finding]:
        # Local ufunc/constructor aliases: ``bxor = np.bitwise_xor``.
        aliases = dict(np_names)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in np_modules
            ):
                aliases[node.targets[0].id] = node.value.attr
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = self._numpy_callee(node, np_modules, aliases)
            if target is not None:
                name, qualified = target
                if name in _NP_NEUTRAL:
                    continue
                if name in _NP_ALLOCATING:
                    yield self.finding(
                        ctx,
                        node,
                        f"allocating numpy call {qualified}() inside "
                        f"@allocation_free function {func.name!r}",
                    )
                elif name in _NP_UFUNCS and not _has_keyword(node, "out"):
                    yield self.finding(
                        ctx,
                        node,
                        f"ufunc {qualified}() without out= inside "
                        f"@allocation_free function {func.name!r} "
                        "allocates its result",
                    )
                continue
            # Allocating array methods: x.copy(), x.astype(dt) — unless
            # astype(..., copy=False).
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in _ALLOCATING_METHODS
            ):
                if callee.attr == "astype" and any(
                    kw.arg == "copy"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.keywords
                ):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f".{callee.attr}() call inside @allocation_free "
                    f"function {func.name!r} allocates a fresh array",
                )

    @staticmethod
    def _numpy_callee(
        call: ast.Call, np_modules: set[str], aliases: dict[str, str]
    ) -> tuple[str, str] | None:
        """``(numpy_name, display_name)`` when the callee is numpy, else None."""
        callee = call.func
        if (
            isinstance(callee, ast.Attribute)
            and isinstance(callee.value, ast.Name)
            and callee.value.id in np_modules
        ):
            return callee.attr, f"{callee.value.id}.{callee.attr}"
        if isinstance(callee, ast.Name) and callee.id in aliases:
            return aliases[callee.id], callee.id
        return None


# ----------------------------------------------------------------------
# RPR002 — no hard-coded engine-name tuples outside repro._registry
# ----------------------------------------------------------------------
@register_rule
class EngineTupleRule(Rule):
    """RPR002: engine enumeration must come from the registry."""

    id = "RPR002"
    summary = (
        "no hard-coded engine-name tuples outside repro._registry — "
        "use repro._registry.EVALUATION_ENGINES"
    )
    scope = "src"

    #: Modules allowed to spell the names out: the registry itself (the
    #: single source of truth) and this checker.
    exempt_modules = frozenset({"repro._registry"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag tuple/list/set displays holding two or more engine names."""
        if ctx.module in self.exempt_modules or (
            ctx.module is not None and ctx.module.startswith("repro.devtools")
        ):
            return
        engines = set(EVALUATION_ENGINES)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                continue
            found = {
                elt.value
                for elt in node.elts
                if isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)
                and elt.value in engines
            }
            if len(found) >= 2:
                names = ", ".join(sorted(found))
                yield self.finding(
                    ctx,
                    node,
                    f"hard-coded engine names ({names}) — enumerate "
                    "engines through repro._registry.EVALUATION_ENGINES "
                    "instead",
                )


# ----------------------------------------------------------------------
# RPR004 — fork/pickle hazards in objects shipped to WorkerPool workers
# ----------------------------------------------------------------------
@register_rule
class WorkerShippingRule(Rule):
    """RPR004: task objects must ship no resources or shared mutables."""

    id = "RPR004"
    summary = (
        "objects shipped to WorkerPool workers must not capture open "
        "resources, locks, lambdas or shared mutable class state"
    )
    scope = "parallel"

    #: Callables whose result must never be stored on a task instance —
    #: they do not survive pickling (or silently desynchronise on fork).
    resource_factories = frozenset(
        {
            "open",
            "Lock",
            "RLock",
            "Event",
            "Condition",
            "Semaphore",
            "BoundedSemaphore",
            "Barrier",
            "Queue",
            "SimpleQueue",
            "socket",
            "Popen",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag mutable class state, stored resources and lambda submits."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_submit(ctx, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        is_task = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in ("__call__", "__reduce__")
            for stmt in cls.body
        )
        for stmt in cls.body:
            # Shared mutable class attributes: every pickled/forked task
            # instance believes it owns them; state diverges silently.
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if value is not None and self._is_mutable_display(value):
                yield self.finding(
                    ctx,
                    stmt,
                    f"mutable class attribute on {cls.name!r} — shared "
                    "across forked/pickled instances; create it in "
                    "__init__ or use worker-local module state",
                )
        if not is_task:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                    and isinstance(node.value, ast.Call)
                ):
                    callee = node.value.func
                    factory = (
                        callee.id
                        if isinstance(callee, ast.Name)
                        else callee.attr
                        if isinstance(callee, ast.Attribute)
                        else None
                    )
                    if factory in self.resource_factories:
                        yield self.finding(
                            ctx,
                            node,
                            f"{factory}() result stored on "
                            f"self.{node.targets[0].attr} of task class "
                            f"{cls.name!r} — does not survive "
                            "pickling/fork to WorkerPool workers",
                        )

    def _check_submit(
        self, ctx: FileContext, call: ast.Call
    ) -> Iterator[Finding]:
        callee = call.func
        if not (
            isinstance(callee, ast.Attribute)
            and callee.attr in ("submit", "map", "apply_async")
        ):
            return
        for arg in call.args:
            if isinstance(arg, ast.Lambda):
                yield self.finding(
                    ctx,
                    arg,
                    f"lambda passed to .{callee.attr}() — lambdas do not "
                    "pickle; ship a module-level function or a picklable "
                    "task object",
                )

    @staticmethod
    def _is_mutable_display(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "dict", "set")
        )


# ----------------------------------------------------------------------
# RPR005 — numpydoc docstrings on public functions
# ----------------------------------------------------------------------
@register_rule
class DocstringRule(Rule):
    """RPR005: public API carries (sane) numpydoc docstrings."""

    id = "RPR005"
    summary = (
        "public functions/classes in un-grandfathered modules carry "
        "numpydoc docstrings (sections underlined with dashes)"
    )
    scope = "src"

    #: Section headers whose numpydoc underline is checked when present.
    section_headers = (
        "Parameters",
        "Returns",
        "Yields",
        "Raises",
        "Attributes",
        "Examples",
        "Notes",
        "See Also",
    )

    #: Modules exempted from the docstring requirement (legacy surface
    #: still being documented; shrink, never grow).
    grandfathered = frozenset({"repro.cli"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag missing docstrings and malformed numpydoc section headers."""
        if ctx.module is None or ctx.module in self.grandfathered:
            return
        for node, qualname in self._public_defs(ctx.tree):
            doc = ast.get_docstring(node, clean=True)
            if doc is None:
                kind = (
                    "class" if isinstance(node, ast.ClassDef) else "function"
                )
                yield self.finding(
                    ctx,
                    node,
                    f"public {kind} {qualname!r} has no docstring",
                )
                continue
            yield from self._check_sections(ctx, node, qualname, doc)

    def _public_defs(
        self, tree: ast.Module
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef, str]]:
        def walk_body(
            body: list[ast.stmt], prefix: str, in_class: bool
        ) -> Iterator[
            tuple[ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef, str]
        ]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if stmt.name.startswith("_"):
                        continue
                    if in_class and self._is_trivial_method(stmt):
                        continue
                    yield stmt, f"{prefix}{stmt.name}"
                elif isinstance(stmt, ast.ClassDef):
                    if stmt.name.startswith("_"):
                        continue
                    yield stmt, f"{prefix}{stmt.name}"
                    yield from walk_body(
                        stmt.body, f"{prefix}{stmt.name}.", True
                    )

        yield from walk_body(tree.body, "", False)

    @staticmethod
    def _is_trivial_method(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """Skip property getters and tiny delegating methods (≤ 2 stmts)."""
        has_property = any(
            (isinstance(d, ast.Name) and d.id in ("property", "cached_property"))
            or (isinstance(d, ast.Attribute) and d.attr == "cached_property")
            for d in func.decorator_list
        )
        return has_property and len(func.body) <= 2

    def _check_sections(
        self,
        ctx: FileContext,
        node: ast.AST,
        qualname: str,
        doc: str,
    ) -> Iterator[Finding]:
        lines = doc.splitlines()
        for i, line in enumerate(lines):
            stripped = line.strip()
            if stripped in self.section_headers:
                underline = lines[i + 1].strip() if i + 1 < len(lines) else ""
                if not underline or set(underline) != {"-"}:
                    yield self.finding(
                        ctx,
                        node,
                        f"docstring of {qualname!r} has a "
                        f"{stripped!r} header without a dashed "
                        "numpydoc underline",
                    )


# ----------------------------------------------------------------------
# RPR006 — prefix states go through the cache's incremental front end
# ----------------------------------------------------------------------
@register_rule
class PrefixBuildRule(Rule):
    """RPR006: ``PrefixStates.build`` only inside ``repro.cache``."""

    id = "RPR006"
    summary = (
        "fault-free prefix states must be acquired through "
        "repro.cache.acquire_prefix_states — direct PrefixStates.build() "
        "calls bypass prefix reuse"
    )
    scope = "src"

    #: The sanctioned call site: the incremental front end itself (its
    #: cold path *is* the build call).
    exempt_modules = frozenset({"repro.cache.restore"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``PrefixStates.build(...)`` calls (however qualified)."""
        if ctx.module in self.exempt_modules or (
            ctx.module is not None and ctx.module.startswith("repro.devtools")
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if not (
                isinstance(callee, ast.Attribute) and callee.attr == "build"
            ):
                continue
            owner = callee.value
            owner_name = (
                owner.id
                if isinstance(owner, ast.Name)
                else owner.attr
                if isinstance(owner, ast.Attribute)
                else None
            )
            if owner_name == "PrefixStates":
                yield self.finding(
                    ctx,
                    node,
                    "direct PrefixStates.build() call — acquire prefix "
                    "states through repro.cache.acquire_prefix_states "
                    "(prefix reuse, bit-identical) instead",
                )


# ----------------------------------------------------------------------
# RPR007 — wall-clock reads only inside repro.observe
# ----------------------------------------------------------------------
@register_rule
class RawClockRule(Rule):
    """RPR007: ``time.perf_counter()`` & friends only in ``repro.observe``."""

    id = "RPR007"
    summary = (
        "raw clock reads (time.perf_counter/time.time/time.monotonic) "
        "outside repro.observe — measure through Trace.span() so timings "
        "land in the span tree"
    )
    scope = "src"

    #: The instrumentation layer itself is the single sanctioned reader.
    exempt_prefixes = ("repro.observe",)

    #: ``time``-module callables that read the wall clock.  ``sleep`` and
    #: the struct-time helpers are deliberately not listed — the rule
    #: polices self-measurement, not scheduling.
    clock_names = frozenset(
        {
            "perf_counter",
            "perf_counter_ns",
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag clock calls, including through import and local aliases."""
        if ctx.module is not None and (
            ctx.module.startswith(self.exempt_prefixes)
            or ctx.module.startswith("repro.devtools")
        ):
            return
        modules, names = self._time_aliases(ctx.tree)
        if not modules and not names:
            return
        aliases = dict(names)
        for node in ast.walk(ctx.tree):
            # Local clock aliases: ``clock = time.perf_counter``.
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in modules
                and node.value.attr in self.clock_names
            ):
                aliases[node.targets[0].id] = node.value.attr
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            display = None
            if (
                isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id in modules
                and callee.attr in self.clock_names
            ):
                display = f"{callee.value.id}.{callee.attr}"
            elif isinstance(callee, ast.Name) and callee.id in aliases:
                display = callee.id
            if display is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"raw clock read {display}() outside repro.observe — "
                    "wrap the region in Trace.span() (repro.observe) so "
                    "the timing joins the span tree",
                )

    @staticmethod
    def _time_aliases(tree: ast.Module) -> tuple[set[str], dict[str, str]]:
        """``(module_aliases, clock_from_imports)`` for the ``time`` module."""
        return _import_aliases(tree, "time", RawClockRule.clock_names)


def _import_aliases(
    tree: ast.Module, module: str, member_names: frozenset[str]
) -> tuple[set[str], dict[str, str]]:
    """Import names under which *module* and its members are reachable.

    ``import time as t`` lands ``t`` in the module-alias set;
    ``from time import sleep as pause`` lands ``{"pause": "sleep"}`` in
    the member map (only members listed in *member_names* are tracked).
    """
    modules: set[str] = set()
    members: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    modules.add(alias.asname or module)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                if alias.name in member_names:
                    members[alias.asname or alias.name] = alias.name
    return modules, members


# ----------------------------------------------------------------------
# RPR008 — no blocking calls inside async def bodies (repro.serve)
# ----------------------------------------------------------------------
@register_rule
class AsyncBlockingRule(Rule):
    """RPR008: ``async def`` bodies in ``repro.serve`` never block."""

    id = "RPR008"
    summary = (
        "no blocking calls (time.sleep, synchronous Session workloads, "
        "subprocess.run) inside async def bodies — blocking work runs in "
        "the session pool's executor threads, never on the event loop"
    )
    scope = "serve"

    #: The synchronous Session workload methods.  Calling one on the
    #: event loop stalls every connected client for the whole job.
    session_methods = frozenset(
        {
            "verify",
            "passes_test_set",
            "fault_matrix",
            "fault_coverage",
            "diagnose",
            "compare_test_sets",
        }
    )

    #: ``subprocess`` callables that block until the child exits.
    subprocess_callables = frozenset(
        {"run", "call", "check_call", "check_output"}
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag blocking calls lexically inside ``async def`` bodies.

        Nested synchronous ``def`` bodies are exempt — they are exactly
        where the service parks blocking work before shipping it to an
        executor thread — and passing a callable *uncalled* (e.g. to
        ``loop.run_in_executor`` / ``asyncio.to_thread``) never fires.
        """
        time_mods, time_members = _import_aliases(
            ctx.tree, "time", frozenset({"sleep"})
        )
        sub_mods, sub_members = _import_aliases(
            ctx.tree, "subprocess", self.subprocess_callables
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async(
                    ctx, node, time_mods, time_members, sub_mods, sub_members
                )

    def _check_async(
        self,
        ctx: FileContext,
        func: ast.AsyncFunctionDef,
        time_mods: set[str],
        time_members: dict[str, str],
        sub_mods: set[str],
        sub_members: dict[str, str],
    ) -> Iterator[Finding]:
        for node in self._own_body(func):
            if not isinstance(node, ast.Call):
                continue
            blocking = self._blocking_callee(
                node, time_mods, time_members, sub_mods, sub_members
            )
            if blocking is not None:
                display, remedy = blocking
                yield self.finding(
                    ctx,
                    node,
                    f"blocking call {display}() inside async def "
                    f"{func.name!r} stalls the event loop — {remedy}",
                )

    @staticmethod
    def _own_body(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """The function's own nodes, not descending into nested defs."""
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _blocking_callee(
        self,
        call: ast.Call,
        time_mods: set[str],
        time_members: dict[str, str],
        sub_mods: set[str],
        sub_members: dict[str, str],
    ) -> tuple[str, str] | None:
        """``(display, remedy)`` when the call blocks, else ``None``."""
        callee = call.func
        executor_remedy = (
            "ship it to an executor thread (loop.run_in_executor / "
            "asyncio.to_thread)"
        )
        if isinstance(callee, ast.Attribute):
            owner = callee.value
            owner_name = owner.id if isinstance(owner, ast.Name) else None
            if owner_name in time_mods and callee.attr == "sleep":
                return f"{owner_name}.sleep", "use await asyncio.sleep()"
            if (
                owner_name in sub_mods
                and callee.attr in self.subprocess_callables
            ):
                return f"{owner_name}.{callee.attr}", executor_remedy
            if callee.attr in self.session_methods:
                return (
                    f".{callee.attr}",
                    "synchronous Session workloads belong in the session "
                    "pool's executor threads",
                )
        elif isinstance(callee, ast.Name):
            if time_members.get(callee.id) == "sleep":
                return callee.id, "use await asyncio.sleep()"
            if callee.id in sub_members:
                return callee.id, executor_remedy
        return None
