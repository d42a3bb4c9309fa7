"""The rule framework: file contexts, the rule base class, the registry.

A rule is a class with a class-level ``id`` (``RPRxxx``), a one-line
``summary``, a ``scope`` declaring which files it applies to, and a
``check(ctx)`` method yielding :class:`~repro.devtools.findings.Finding`
objects.  Registration is a decorator::

    @register_rule
    class MyRule(Rule):
        id = "RPR042"
        summary = "what the rule enforces"
        scope = "src"

        def check(self, ctx: FileContext) -> Iterator[Finding]:
            ...

Scopes
------
``"all"``
    Every checked file (``src/``, ``tests/``, ``benchmarks/``).
``"src"``
    Only files inside the ``repro`` package source tree.  Rules about
    *internal* discipline (registry indirection, prefix acquisition) use
    this — tests and benchmarks legitimately enumerate engines.
``"parallel"``
    Only ``repro.parallel`` modules (the fork/pickle hazard rule).
``"serve"``
    Only ``repro.serve`` modules (the async-blocking rule — event-loop
    discipline only matters where an event loop runs).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import ClassVar

from .findings import Finding, parse_noqa

__all__ = [
    "FileContext",
    "Rule",
    "register_rule",
    "all_rules",
    "get_rule",
]


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file.

    Attributes
    ----------
    path : str
        The path as given to the checker (used in findings).
    source : str
        Full file text.
    tree : ast.Module
        The parsed module.
    noqa : dict
        The ``# repro: noqa`` suppression table
        (:func:`repro.devtools.findings.parse_noqa`).
    module : str or None
        Dotted module name when the file lies in a ``repro`` source tree
        (``src/repro/...``), else ``None``.
    """

    path: str
    source: str
    tree: ast.Module
    noqa: dict[int, frozenset[str] | None] = field(default_factory=dict)
    module: str | None = None

    @classmethod
    def from_source(cls, path: str, source: str) -> FileContext:
        """Parse *source* into a context (raises ``SyntaxError``)."""
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            noqa=parse_noqa(source),
            module=module_name(path),
        )

    @property
    def in_src(self) -> bool:
        """Does the file belong to the ``repro`` package source tree?"""
        return self.module is not None

    @property
    def in_parallel(self) -> bool:
        """Does the file belong to ``repro.parallel``?"""
        return self.module is not None and (
            self.module == "repro.parallel"
            or self.module.startswith("repro.parallel.")
        )

    @property
    def in_serve(self) -> bool:
        """Does the file belong to ``repro.serve``?"""
        return self.module is not None and (
            self.module == "repro.serve"
            or self.module.startswith("repro.serve.")
        )


def module_name(path: str) -> str | None:
    """The dotted ``repro.*`` module name of a source path, if any.

    ``src/repro/core/scratch.py`` → ``"repro.core.scratch"``;
    ``tests/test_x.py`` → ``None``.  Works on absolute paths too — the
    name starts at the last ``src`` component followed by ``repro``.
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i > 0 and parts[i - 1] == "src":
            dotted = list(parts[i:])
            if not dotted[-1].endswith(".py"):
                return None
            dotted[-1] = dotted[-1][: -len(".py")]
            if dotted[-1] == "__init__":
                dotted.pop()
            return ".".join(dotted)
    return None


class Rule:
    """Base class for checker rules (see the module docstring)."""

    id: ClassVar[str] = "RPR000"
    summary: ClassVar[str] = ""
    scope: ClassVar[str] = "all"

    def applies(self, ctx: FileContext) -> bool:
        """Does the rule's scope cover this file?"""
        if self.scope == "all":
            return True
        if self.scope == "src":
            return ctx.in_src
        if self.scope == "parallel":
            return ctx.in_parallel
        if self.scope == "serve":
            return ctx.in_serve
        raise ValueError(f"unknown rule scope {self.scope!r}")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield the rule's findings for one file."""
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """A :class:`Finding` anchored at an AST node of this file."""
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (one instance kept)."""
    if cls.id in _RULES:
        raise ValueError(f"rule id {cls.id!r} is already registered")
    _RULES[cls.id] = cls()
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by id."""
    return tuple(_RULES[rule_id] for rule_id in sorted(_RULES))


def get_rule(rule_id: str) -> Rule:
    """Look a rule up by id (raises ``KeyError`` when unknown)."""
    return _RULES[rule_id]
