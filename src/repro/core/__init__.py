"""Core comparator-network data model and evaluation engine.

This subpackage contains everything needed to *represent* and *run*
comparator networks; the paper-specific machinery (test sets, adversaries,
bounds) builds on top of it.

Public surface
--------------
:class:`Comparator`
    A single (optionally reversed) comparator between two lines.
:class:`ComparatorNetwork`
    An immutable sequence of comparators on ``n`` lines.
:class:`NetworkBuilder`
    Fluent construction helper used by the recursive constructions.
Evaluation helpers
    :func:`apply_network_to_batch`, :func:`all_binary_words`,
    :func:`all_binary_words_array`, :func:`evaluate_on_all_binary_inputs`,
    :func:`outputs_on_words`, :func:`batch_is_sorted`.  Batch helpers accept
    an ``engine`` keyword selecting one of :data:`EVALUATION_ENGINES`
    (``"scalar"``, ``"vectorized"``, ``"bitpacked"``); :func:`route_engine`
    is the rule by which workload calls pick one by value domain.
Bit-packed engine
    :class:`PackedBatch`, :func:`pack_batch`, :func:`unpack_batch`,
    :func:`packed_all_binary_words`, :func:`apply_network_packed`,
    :func:`packed_is_sorted` — 0/1 batches stored as uint64 bit planes, 64
    words per machine word (see :mod:`repro.core.bitpacked`).
Random generators
    :func:`random_network`, :func:`random_sorter_mutation`,
    :func:`random_height_limited_network`.
"""

from .bitpacked import (
    PackedBatch,
    apply_network_packed,
    pack_batch,
    pack_words,
    packed_all_binary_words,
    packed_equal,
    packed_is_sorted,
    unpack_batch,
)
from .builder import NetworkBuilder
from .comparator import Comparator
from .diagram import render_network, render_trace
from .evaluation import (
    EVALUATION_ENGINES,
    all_binary_words,
    all_binary_words_array,
    apply_network_to_batch,
    array_to_words,
    batch_is_sorted,
    check_engine,
    evaluate_on_all_binary_inputs,
    min_word_dtype,
    narrow_binary_batch,
    outputs_on_words,
    route_engine,
    unsorted_binary_words_array,
    words_to_array,
)
from .layers import decompose_into_layers, network_depth, network_from_layers
from .network import ComparatorNetwork
from .random_networks import (
    all_standard_comparators,
    random_height_limited_network,
    random_network,
    random_networks,
    random_sorter_mutation,
    random_standard_comparator,
)
from .scratch import PlaneArena, shared_arena
from .serialization import (
    network_from_dict,
    network_from_json,
    network_from_knuth,
    network_to_dict,
    network_to_json,
    network_to_knuth,
)
from .simplify import (
    active_comparator_counts,
    comparator_is_redundant,
    networks_equivalent,
    redundant_comparator_indices,
    remove_redundant_comparators,
)

__all__ = [
    "Comparator",
    "ComparatorNetwork",
    "NetworkBuilder",
    "EVALUATION_ENGINES",
    "all_binary_words",
    "all_binary_words_array",
    "apply_network_to_batch",
    "array_to_words",
    "batch_is_sorted",
    "check_engine",
    "evaluate_on_all_binary_inputs",
    "min_word_dtype",
    "narrow_binary_batch",
    "outputs_on_words",
    "route_engine",
    "unsorted_binary_words_array",
    "words_to_array",
    "PackedBatch",
    "PlaneArena",
    "shared_arena",
    "apply_network_packed",
    "pack_batch",
    "pack_words",
    "packed_all_binary_words",
    "packed_equal",
    "packed_is_sorted",
    "unpack_batch",
    "decompose_into_layers",
    "network_depth",
    "network_from_layers",
    "network_from_dict",
    "network_from_json",
    "network_from_knuth",
    "network_to_dict",
    "network_to_json",
    "network_to_knuth",
    "render_network",
    "render_trace",
    "active_comparator_counts",
    "comparator_is_redundant",
    "networks_equivalent",
    "redundant_comparator_indices",
    "remove_redundant_comparators",
    "all_standard_comparators",
    "random_height_limited_network",
    "random_network",
    "random_networks",
    "random_sorter_mutation",
    "random_standard_comparator",
]
