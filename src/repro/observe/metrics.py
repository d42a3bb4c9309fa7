"""Typed counter registries: the numeric half of :mod:`repro.observe`.

A :class:`Metrics` instance owns a fixed set of named integer counters.
The schema (the ordered tuple of names) is declared once at construction
time; reads and writes of unknown names raise ``KeyError`` immediately,
so a typo cannot silently create a counter that no merge path knows
about.  The ordered schema doubles as the wire format: :meth:`Metrics.pack`
emits the counters as a plain tuple of ints (picklable, bit-exact) and
:meth:`Metrics.merge_packed` accumulates such a tuple — this is the single
aggregation path used both by :class:`repro.parallel.pool.WorkerPool`
workers shipping counters back to the parent and by the result cache
replaying memoised counters on a warm hit.

Legacy stats classes (:class:`repro.faults.SimulationStats`,
:class:`repro.cache.CacheStats`) remain in place as thin views over a
``Metrics`` instance; see ``docs/ARCHITECTURE.md`` ("Observability").
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = [
    "Metrics",
]


class Metrics:
    """A fixed-schema registry of named integer counters.

    Parameters
    ----------
    names : sequence of str
        The counter schema, in order.  The order is load-bearing: it
        defines the layout of the :meth:`pack` tuple that crosses
        process boundaries.
    initial : mapping of str to int, optional
        Initial values for a subset of the counters (the rest start
        at 0).

    Raises
    ------
    ValueError
        If *names* contains duplicates.
    KeyError
        From any accessor, if a name is not part of the schema.

    Examples
    --------
    >>> m = Metrics(("hits", "misses"))
    >>> m.increment("hits")
    >>> m.increment("misses", 2)
    >>> m.pack()
    (1, 2)
    >>> other = Metrics(("hits", "misses"))
    >>> other.merge_packed(m.pack())
    >>> other.as_dict()
    {'hits': 1, 'misses': 2}
    """

    __slots__ = ("_names", "_counts")

    def __init__(
        self,
        names: Sequence[str],
        initial: Mapping[str, int] | None = None,
    ) -> None:
        schema = tuple(names)
        if len(set(schema)) != len(schema):
            raise ValueError(f"duplicate counter names in schema: {schema!r}")
        self._names = schema
        self._counts: dict[str, int] = dict.fromkeys(schema, 0)
        if initial:
            for name, value in initial.items():
                self.set(name, value)

    @property
    def names(self) -> tuple[str, ...]:
        """The counter schema, in :meth:`pack` order."""
        return self._names

    def get(self, name: str) -> int:
        """Current value of counter *name*.

        Parameters
        ----------
        name : str
            A name from the schema.

        Returns
        -------
        int
            The counter's current value.
        """
        return self._counts[name]

    def set(self, name: str, value: int) -> None:
        """Overwrite counter *name* with *value*.

        Parameters
        ----------
        name : str
            A name from the schema.
        value : int
            The new absolute value.
        """
        if name not in self._counts:
            raise KeyError(name)
        self._counts[name] = value

    def increment(self, name: str, amount: int = 1) -> None:
        """Add *amount* (default 1) to counter *name*.

        Parameters
        ----------
        name : str
            A name from the schema.
        amount : int, optional
            The increment; may be any int, including 0 or negative.
        """
        self._counts[name] += amount

    def pack(self) -> tuple[int, ...]:
        """The counters as a plain tuple in schema order.

        This is the picklable wire format shipped from
        :class:`~repro.parallel.pool.WorkerPool` workers to the parent
        and stored in result-cache verdict memos; feed it back through
        :meth:`merge_packed`.

        Returns
        -------
        tuple of int
            One value per schema name, in schema order.
        """
        counts = self._counts
        return tuple(counts[name] for name in self._names)

    def merge_packed(self, counts: Sequence[int]) -> None:
        """Accumulate a :meth:`pack` tuple produced under the same schema.

        Parameters
        ----------
        counts : sequence of int
            A tuple from :meth:`pack` (same schema, same order).

        Raises
        ------
        ValueError
            If *counts* has the wrong length for the schema.
        """
        if len(counts) != len(self._names):
            raise ValueError(
                f"packed counters have length {len(counts)}, "
                f"schema expects {len(self._names)}"
            )
        for name, value in zip(self._names, counts):
            self._counts[name] += value

    def merge(self, other: Metrics) -> None:
        """Accumulate another registry's counters (schemas must match).

        Parameters
        ----------
        other : Metrics
            A registry built from the same schema.

        Raises
        ------
        ValueError
            If the schemas differ.
        """
        if other._names != self._names:
            raise ValueError(
                f"cannot merge schema {other._names!r} into {self._names!r}"
            )
        for name, value in other._counts.items():
            self._counts[name] += value

    def as_dict(self) -> dict[str, int]:
        """The counters as a fresh ``{name: value}`` dict in schema order."""
        return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter (the schema is unchanged)."""
        for name in self._names:
            self._counts[name] = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Metrics):
            return NotImplemented
        return self._names == other._names and self._counts == other._counts

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self._counts.items())
        return f"Metrics({body})"
