"""Runtime allocation sanitizer over every ``@allocation_free`` function.

One scenario per decorated function drives its steady-state scratch path
(pre-acquired arena rows, ``out=`` ufuncs) under
:func:`repro.devtools.sanitize.assert_allocation_free` with a transient
budget far below one bit-plane — the planes here are 8 KiB
(``N_BLOCKS = 1024``), so a single plane-sized temporary escaping onto
the hot path blows the budget immediately.  The stacked fault kernel's
scenarios add a stated per-run bookkeeping allowance (``PER_RUN``): a
plane broadcast over the stack's rows (numpy's iterator buffers, up to
64 KiB) still blows it.  A completeness check pins the
scenario set to the :func:`repro.core.scratch.allocation_free_functions`
registry, so decorating a new function without adding a scenario fails
the suite.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.constructions import batcher_sorting_network
from repro.core.bitpacked import (
    apply_comparators_packed,
    apply_network_packed,
    packed_clear_sorted_cube_words,
    packed_count_gt_blocks,
    packed_is_sorted_arena,
    packed_selection_violation_blocks,
    packed_unsorted_blocks,
    packed_zero_count_planes,
)
from repro.core.evaluation import all_binary_words_array
from repro.core.scratch import PlaneArena, allocation_free_functions
from repro.devtools.sanitize import (
    AllocationError,
    assert_allocation_free,
    trace_allocations,
)
from repro.faults import (
    ReversedComparatorFault,
    SimulationStats,
    enumerate_single_faults,
)
from repro.faults.simulation import (
    PrefixStates,
    _detection_row,
    _errors_detect,
    _pack_vectors,
    _pruned_fault_errors,
    _row_from_errors,
    _run_spec,
    _stack_rows,
    _stack_verdicts,
    _sweep_stack,
)

N_LINES = 8
TILE = 256  # 256 × 2^8 words → 65536 words → 1024 blocks → 8 KiB planes

#: Budget for functions that only write into caller-provided buffers:
#: generous for Python bookkeeping, half of one plane.
TIGHT = 4096

#: Per-run bookkeeping allowance of the stacked fault kernel, on top of
#: TIGHT: its per-comparator index vectors, the forced-line index arrays
#: and numpy's fancy-index state scale with the runs in the stack, not
#: with the planes (the env's stack holds 16 runs: 8 KiB in all).
PER_RUN = 512


@pytest.fixture(scope="module")
def env():
    """Shared packed batch, prefix record and arena (built untracked)."""
    network = batcher_sorting_network(N_LINES)
    vectors = np.tile(all_binary_words_array(N_LINES), (TILE, 1))
    packed = _pack_vectors(network, vectors)
    n_blocks = packed.n_blocks
    arena = PlaneArena(N_LINES, n_blocks, packed.planes.dtype)
    prefix = PrefixStates.build(network, packed)
    reference = prefix.reference()
    outputs = apply_network_packed(network, packed, copy=True)
    m = max(1, N_LINES.bit_length())
    return SimpleNamespace(
        network=network,
        packed=packed,
        n_blocks=n_blocks,
        num_words=packed.num_words,
        plane_bytes=n_blocks * 8,
        row_bytes=packed.num_words,
        arena=arena,
        prefix=prefix,
        reference=reference,
        outputs=outputs,
        pad=arena.pad_row(packed.num_words).copy(),
        work_planes=packed.planes.copy(),
        row_out=np.zeros(n_blocks, dtype=packed.planes.dtype),
        scratch_row=np.zeros(n_blocks, dtype=packed.planes.dtype),
        scratch_row2=np.zeros(n_blocks, dtype=packed.planes.dtype),
        counter_out=np.zeros((m, n_blocks), dtype=packed.planes.dtype),
        stats=SimulationStats(),
    )


def run_budgeted(fn, *, transient, retained=None, label=""):
    """Warm *fn* up once, then assert the steady-state call's budget."""
    fn()
    with assert_allocation_free(
        max_transient_bytes=transient,
        max_retained_bytes=retained,
        label=label,
    ):
        fn()


# ----------------------------------------------------------------------
# repro.core.bitpacked
# ----------------------------------------------------------------------
def test_apply_comparators_packed(env):
    run_budgeted(
        lambda: apply_comparators_packed(
            env.work_planes, env.network.comparators, out=env.scratch_row
        ),
        transient=TIGHT,
        retained=TIGHT,
        label="apply_comparators_packed",
    )


def test_packed_unsorted_blocks(env):
    run_budgeted(
        lambda: packed_unsorted_blocks(
            env.packed, out=env.row_out, scratch=env.scratch_row, pad=env.pad
        ),
        transient=TIGHT,
        retained=TIGHT,
        label="packed_unsorted_blocks",
    )


def test_packed_zero_count_planes(env):
    run_budgeted(
        lambda: packed_zero_count_planes(
            env.packed,
            out=env.counter_out,
            scratch=(env.scratch_row, env.scratch_row2),
            pad=env.pad,
        ),
        transient=TIGHT,
        retained=TIGHT,
        label="packed_zero_count_planes",
    )


def test_packed_count_gt_blocks(env):
    packed_zero_count_planes(
        env.packed,
        out=env.counter_out,
        scratch=(env.scratch_row, env.scratch_row2),
        pad=env.pad,
    )
    run_budgeted(
        lambda: packed_count_gt_blocks(
            env.counter_out,
            3,
            env.pad,
            out=env.row_out,
            scratch=(env.scratch_row, env.scratch_row2),
        ),
        transient=TIGHT,
        retained=TIGHT,
        label="packed_count_gt_blocks",
    )


def test_packed_is_sorted_arena(env):
    run_budgeted(
        lambda: packed_is_sorted_arena(env.packed, env.arena),
        transient=TIGHT,
        retained=TIGHT,
        label="packed_is_sorted_arena",
    )


def test_packed_is_sorted_arena_on_unsorted_inputs(env):
    run_budgeted(
        lambda: packed_is_sorted_arena(
            env.packed, env.arena, restrict_to_unsorted_inputs=True
        ),
        transient=TIGHT,
        retained=TIGHT,
        label="packed_is_sorted_arena(restrict_to_unsorted_inputs=True)",
    )


def test_packed_clear_sorted_cube_words(env):
    # 1024 blocks hold the 2**16-word cube: all 17 sorted ranks land in it.
    run_budgeted(
        lambda: packed_clear_sorted_cube_words(env.row_out, 16),
        transient=TIGHT,
        retained=TIGHT,
        label="packed_clear_sorted_cube_words",
    )


def test_packed_selection_violation_blocks(env):
    run_budgeted(
        lambda: packed_selection_violation_blocks(
            env.packed, env.outputs, 4, arena=env.arena, out=env.row_out
        ),
        transient=TIGHT,
        retained=TIGHT,
        label="packed_selection_violation_blocks",
    )


# ----------------------------------------------------------------------
# repro.properties.sorter
# ----------------------------------------------------------------------
def test_sorting_violations_arena(env):
    """The sorter checker's violation-mask seam stays allocation-free."""
    from repro.properties.sorter import _sorting_violations_arena

    run_budgeted(
        lambda: _sorting_violations_arena(env.outputs, env.arena, env.row_out),
        transient=TIGHT,
        retained=TIGHT,
        label="_sorting_violations_arena",
    )


# ----------------------------------------------------------------------
# repro.faults.simulation
# ----------------------------------------------------------------------
def test_prefix_state_after(env):
    run_budgeted(
        lambda: env.prefix.state_after(5, out=env.arena.state),
        transient=TIGHT,
        retained=TIGHT,
        label="PrefixStates.state_after",
    )


def test_pruned_fault_errors(env):
    fault = ReversedComparatorFault(0)
    run_budgeted(
        lambda: _pruned_fault_errors(
            env.network, fault, env.prefix, env.stats, env.arena
        ),
        transient=TIGHT,
        retained=TIGHT,
        label="_pruned_fault_errors",
    )


def test_errors_detect(env):
    planes = env.reference.planes
    ref_pair_any = [
        bool((planes[j] & ~planes[j + 1] & env.pad).any())
        for j in range(N_LINES - 1)
    ]
    err = _pruned_fault_errors(
        env.network, ReversedComparatorFault(0), env.prefix, env.stats,
        env.arena,
    )
    assert isinstance(err, dict) and err, "fixture fault should leave errors"
    run_budgeted(
        lambda: _errors_detect(
            env.reference, err, "specification", env.pad, ref_pair_any,
            arena=env.arena,
        ),
        transient=TIGHT,
        retained=TIGHT,
        label="_errors_detect",
    )


@pytest.fixture(scope="module")
def swept(env):
    """A full stack of the extended universe's runs (every run code),
    swept once; the scenarios re-sweep it in place."""
    faults = enumerate_single_faults(env.network, line_stuck_at_input_only=False)
    stack = env.arena.fault_stack(len(faults))
    step = max(1, len(faults) // stack.height)
    specs = sorted(_run_spec(env.network, f) for f in faults[::step])
    specs = specs[: stack.height]
    assert len(specs) == stack.height == 16
    assert {spec[1] for spec in specs} == {0, 1, 2, 3}
    _sweep_stack(env.prefix, specs, stack, env.arena)
    assert stack.dirty[:, : len(specs)].any(), "fixture runs should stay dirty"
    return SimpleNamespace(stack=stack, specs=specs, h=len(specs))


def test_sweep_stack(env, swept):
    def sweep():
        swept.stack.clear(swept.h)
        _sweep_stack(env.prefix, swept.specs, swept.stack, env.arena)

    run_budgeted(
        sweep,
        transient=TIGHT + PER_RUN * swept.h,
        retained=TIGHT,
        label="_sweep_stack",
    )


def test_stack_verdicts(env, swept):
    planes = env.reference.planes
    ref_pair_any = [
        bool((planes[j] & ~planes[j + 1] & env.pad).any())
        for j in range(N_LINES - 1)
    ]
    run_budgeted(
        lambda: _stack_verdicts(
            env.reference, swept.stack, swept.h, "specification",
            ref_pair_any, env.pad,
        ),
        transient=TIGHT + PER_RUN * swept.h,
        retained=TIGHT,
        label="_stack_verdicts",
    )


def test_stack_rows(env, swept):
    # The unpacked result rows (num_words bytes per run) are irreducible.
    rows = swept.h * env.row_bytes
    run_budgeted(
        lambda: _stack_rows(env.reference, swept.stack, swept.h, "specification"),
        transient=rows + TIGHT + PER_RUN * swept.h,
        retained=rows + TIGHT,
        label="_stack_rows",
    )


def test_detection_row(env):
    # The unpacked boolean result row (num_words bytes) and the unpack
    # buffer are irreducible; plane-sized sweep temporaries are not.
    run_budgeted(
        lambda: _detection_row(
            env.reference, env.reference, "specification", arena=env.arena
        ),
        transient=3 * env.row_bytes + TIGHT,
        retained=env.row_bytes + TIGHT,
        label="_detection_row",
    )


def test_row_from_errors(env):
    err = _pruned_fault_errors(
        env.network, ReversedComparatorFault(0), env.prefix, env.stats,
        env.arena,
    )
    assert isinstance(err, dict) and err
    run_budgeted(
        lambda: _row_from_errors(
            env.reference, err, "specification", env.pad, env.arena
        ),
        transient=3 * env.row_bytes + TIGHT,
        retained=env.row_bytes + TIGHT,
        label="_row_from_errors",
    )


# ----------------------------------------------------------------------
# repro.cache.restore
# ----------------------------------------------------------------------
def test_donor_chunk_sorted():
    """One chunk of the cached sorter check's early-exit sweep: restore,
    suffix and judge all run in views of the cube-geometry arena."""
    from repro.cache.restore import _donor_chunk_sorted
    from repro.core.bitpacked import early_exit_spans, packed_all_binary_words

    n = 16  # 2**16 words → 1024 blocks → 8 KiB planes, like the env batch
    network = batcher_sorting_network(n)
    cube = packed_all_binary_words(n)
    donor = PrefixStates.build(network, cube)
    lcp = network.size // 2
    mutant = network.with_comparator_replaced(
        lcp, network.comparators[lcp].flipped()
    )
    suffix = mutant.comparators[lcp:]
    arena = PlaneArena(n, cube.n_blocks, cube.planes.dtype)
    (_, first), span = early_exit_spans(cube.n_blocks)
    assert span == (first, cube.n_blocks)
    run_budgeted(
        lambda: _donor_chunk_sorted(donor, lcp, suffix, arena, span, True),
        transient=TIGHT,
        retained=TIGHT,
        label="_donor_chunk_sorted",
    )


# ----------------------------------------------------------------------
# Completeness: every registered function has a scenario above
# ----------------------------------------------------------------------
COVERED = {
    "repro.core.bitpacked.apply_comparators_packed",
    "repro.core.bitpacked.packed_unsorted_blocks",
    "repro.core.bitpacked.packed_zero_count_planes",
    "repro.core.bitpacked.packed_count_gt_blocks",
    "repro.core.bitpacked.packed_is_sorted_arena",
    "repro.core.bitpacked.packed_clear_sorted_cube_words",
    "repro.core.bitpacked.packed_selection_violation_blocks",
    "repro.properties.sorter._sorting_violations_arena",
    "repro.faults.simulation.PrefixStates.state_after",
    "repro.faults.simulation._pruned_fault_errors",
    "repro.faults.simulation._errors_detect",
    "repro.faults.simulation._detection_row",
    "repro.faults.simulation._row_from_errors",
    "repro.faults.simulation._sweep_stack",
    "repro.faults.simulation._stack_verdicts",
    "repro.faults.simulation._stack_rows",
    "repro.cache.restore._donor_chunk_sorted",
}


def test_every_registered_function_has_a_scenario():
    registered = {
        f"{fn.__module__}.{fn.__qualname__}"
        for fn in allocation_free_functions()
    }
    assert registered == COVERED


def test_registry_marks_functions():
    for fn in allocation_free_functions():
        assert getattr(fn, "__allocation_free__", False) is True


# ----------------------------------------------------------------------
# The sanitizer itself: an allocating control must fail
# ----------------------------------------------------------------------
def test_allocating_control_trips_transient_budget(env):
    def control(a):
        return (a & a) | a  # two plane-sized temporaries

    control(env.work_planes)
    with pytest.raises(AllocationError, match="transient"), assert_allocation_free(
        max_transient_bytes=TIGHT, label="control"
    ):
        control(env.work_planes)


def test_retained_budget_trips_on_survivors():
    keep = []
    with pytest.raises(AllocationError, match="retained"), assert_allocation_free(
        max_transient_bytes=1 << 20, max_retained_bytes=1024
    ):
        keep.append(np.zeros(100_000, dtype=np.uint8))
    assert keep


def test_trace_allocations_reports_byte_counts():
    with trace_allocations() as outer:
        buf = np.zeros(50_000, dtype=np.uint8)
        with trace_allocations() as inner:
            np.zeros(80_000, dtype=np.uint8)  # dropped before exit
        del buf
    assert inner.transient_bytes >= 80_000
    assert outer.retained_bytes < 50_000
