"""Enumeration of fault universes for a network.

Given a fault-free reference network, :func:`enumerate_single_faults`
produces the standard single-fault universe used by the coverage
experiments: one fault object per comparator per comparator-fault model,
plus the line stuck-at faults at the network boundary.  The companion
:func:`faulty_networks` materialises the corresponding faulty devices.

Two further builders feed the diagnosis experiments:
:func:`enumerate_model_faults` answers the canonical universe of any
*registered* fault model by name (the CLI's ``--fault-model`` flag), and
:func:`enumerate_multi_faults` builds the k-subset multi-fault universe
with dominance pruning across the product space.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

from .._registry import get_fault_model
from ..core.network import ComparatorNetwork
from ..exceptions import FaultModelError
from .models import (
    Fault,
    LineStuckFault,
    MultiFault,
    ReversedComparatorFault,
    StuckPassFault,
    StuckSwapFault,
)

__all__ = [
    "FAULT_KINDS",
    "enumerate_single_faults",
    "enumerate_model_faults",
    "enumerate_multi_faults",
    "faulty_networks",
    "equivalent_fault_classes",
]

FAULT_KINDS = ("stuck-pass", "stuck-swap", "reversed", "line-stuck")


def enumerate_single_faults(
    network: ComparatorNetwork,
    *,
    kinds: Sequence[str] = FAULT_KINDS,
    line_stuck_at_input_only: bool = True,
) -> list[Fault]:
    """All single faults of *network* for the requested fault kinds.

    Parameters
    ----------
    network:
        The fault-free reference.
    kinds:
        Subset of :data:`FAULT_KINDS` to enumerate.
    line_stuck_at_input_only:
        When ``True`` (default) line stuck-at faults are only placed at the
        network inputs (stage 0); otherwise one fault is generated per
        (line, value, stage) triple, ``2·n·(size + 1)`` line faults.  Most
        of them are twins — the same faulty device, because no comparator
        touches the line between their stages — and the pruned bit-packed
        coverage kernel simulates each twin class once: ``2·(2·size + n)``
        line-fault simulations per vector chunk, next to the ``3·size``
        comparator faults.
    """
    unknown = set(kinds) - set(FAULT_KINDS)
    if unknown:
        raise FaultModelError(
            f"unknown fault kinds {sorted(unknown)!r}; known kinds are {FAULT_KINDS}"
        )
    faults: list[Fault] = []
    if "stuck-pass" in kinds:
        faults.extend(StuckPassFault(i) for i in range(network.size))
    if "stuck-swap" in kinds:
        faults.extend(StuckSwapFault(i) for i in range(network.size))
    if "reversed" in kinds:
        faults.extend(ReversedComparatorFault(i) for i in range(network.size))
    if "line-stuck" in kinds:
        stages = [0] if line_stuck_at_input_only else list(range(network.size + 1))
        for line in range(network.n_lines):
            for value in (0, 1):
                for stage in stages:
                    faults.append(LineStuckFault(line, value, stage))
    return faults


def enumerate_model_faults(
    network: ComparatorNetwork, model_name: str
) -> list[Fault]:
    """The canonical universe of one *registered* fault model for *network*.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free reference.
    model_name : str
        A name from :func:`repro.api.registry.fault_model_names`.

    Returns
    -------
    list of Fault
        Whatever the model's ``enumerate_for`` registry hook produces.

    Raises
    ------
    FaultModelError
        When the registered class does not implement the hook (plug-in
        models may register detection-only classes).
    """
    model = get_fault_model(model_name)
    try:
        return list(model.enumerate_for(network))
    except NotImplementedError:
        raise FaultModelError(
            f"fault model {model_name!r} does not publish a universe "
            "(no enumerate_for hook)"
        ) from None


def enumerate_multi_faults(
    network: ComparatorNetwork,
    base_faults: Sequence[Fault] | None = None,
    *,
    k: int = 2,
    prune_dominated: bool = True,
) -> list[Fault]:
    """The k-subset multi-fault universe with dominance pruning.

    Builds one :class:`~repro.faults.models.MultiFault` per canonical
    (order-free) k-subset of *base_faults*, skipping physically conflicting
    combinations (two components on one comparator, two forcings on one
    line).  With *prune_dominated* the surviving composites are additionally
    screened behaviourally on the exhaustive ``2**n`` cube: a composite is
    dropped when its faulty device is indistinguishable from the fault-free
    network, from any single base fault, or from an earlier composite —
    those composites are *dominated* in the product space and add no
    diagnostic information.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free reference.
    base_faults : sequence of Fault, optional
        The component pool; defaults to :func:`enumerate_single_faults`.
    k : int
        Number of simultaneous faults per composite.
    prune_dominated : bool
        Enable the behavioural screen.  Exhaustive over ``2**n`` inputs, so
        only use on small networks (the default universes cap at 10 lines).

    Returns
    -------
    list of Fault
        The pruned :class:`~repro.faults.models.MultiFault` universe.
    """
    if k < 1:
        raise FaultModelError(f"multi-fault subsets need k >= 1, got k={k}")
    if base_faults is None:
        base_faults = enumerate_single_faults(network)
    composites: list[Fault] = []
    seen: set[bytes] = set()
    clean_signature = b""
    if prune_dominated:
        from ..core.evaluation import all_binary_words_array, apply_network_to_batch

        inputs = all_binary_words_array(network.n_lines)
        clean_signature = apply_network_to_batch(network, inputs).tobytes()
        for fault in base_faults:
            outputs = apply_network_to_batch(fault.apply_to(network), inputs)
            seen.add(outputs.tobytes())
    for combo in itertools.combinations(base_faults, k):
        try:
            composite = MultiFault(combo)
        except FaultModelError:
            continue  # conflicting combination — pruned structurally
        if prune_dominated:
            outputs = apply_network_to_batch(composite.apply_to(network), inputs)
            signature = outputs.tobytes()
            if signature == clean_signature or signature in seen:
                continue  # dominated: equivalent to clean / single / earlier
            seen.add(signature)
        composites.append(composite)
    return composites


def faulty_networks(
    network: ComparatorNetwork, faults: Iterable[Fault]
) -> Iterator[tuple[Fault, ComparatorNetwork]]:
    """Materialise the faulty device of each fault.

    Parameters
    ----------
    network : ComparatorNetwork
        The fault-free reference.
    faults : iterable of Fault
        Faults to apply, e.g. from :func:`enumerate_single_faults`.

    Yields
    ------
    tuple of (Fault, ComparatorNetwork)
        Each fault paired with ``fault.apply_to(network)``.
    """
    for fault in faults:
        yield fault, fault.apply_to(network)


def equivalent_fault_classes(
    network: ComparatorNetwork, faults: Sequence[Fault]
) -> list[list[Fault]]:
    """Group faults whose faulty networks behave identically on all 0/1 inputs.

    Two faults are *equivalent* when no test vector can distinguish them —
    e.g. a stuck-pass fault on a comparator that is already redundant is
    equivalent to the empty fault class of "no observable defect".  The
    grouping is exhaustive over ``2**n`` inputs, so use small networks.
    """
    from ..core.evaluation import all_binary_words_array, apply_network_to_batch

    inputs = all_binary_words_array(network.n_lines)
    signatures = {}
    for fault in faults:
        faulty = fault.apply_to(network)
        outputs = apply_network_to_batch(faulty, inputs)
        signature = outputs.tobytes()
        signatures.setdefault(signature, []).append(fault)
    return list(signatures.values())
