"""Differential property tests: vectorized kernel vs scalar reference.

The bitmap-slab page table (:class:`~repro.vm.page_table.
BitmapPageTable`) and the scalar set-based reference
(:class:`~repro.vm.page_table.PageTable`) must be observationally
byte-identical — same costs bit-for-bit, same counters, same errors
with the same messages, same mapped sets — under any operation
sequence, including deep-copy fork points (the snapshot machinery
deep-copies page tables) and chaos-perturbed full-driver runs.
Hypothesis drives the sequences; the ``vectorized`` driver knob selects
the implementation for the whole-driver comparisons.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import AccessMode
from repro.driver import UvmDriver, UvmDriverConfig, VaBlock
from repro.engine import Environment
from repro.instrument.traffic import TransferReason
from repro.interconnect import pcie_gen4
from repro.units import BIG_PAGE, MIB
from repro.vm.page_table import MappingError, make_page_table

# Indices span three regions so ops cross the slab's sliding origin: a
# dense low band, a distant band (forces re-anchoring and left-padding),
# and a mid band.
_INDEX_BANDS = st.one_of(
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=9_990, max_value=10_014),
    st.integers(min_value=500, max_value=520),
)

_table_op = st.one_of(
    st.tuples(st.just("map"), _INDEX_BANDS),
    st.tuples(st.just("unmap"), _INDEX_BANDS),
    st.tuples(st.just("unmap_no_tlb"), _INDEX_BANDS),
    st.tuples(
        st.just("unmapped"), st.lists(_INDEX_BANDS, min_size=1, max_size=80)
    ),
    st.tuples(st.just("fork"), st.none()),
)


def _apply(table, name, arg):
    """Run one op; return ('ok', cost) or ('err', type name, message)."""
    try:
        if name == "map":
            return ("ok", table.map_block(arg))
        if name == "unmap":
            return ("ok", table.unmap_block(arg))
        if name == "unmap_no_tlb":
            return ("ok", table.unmap_block(arg, invalidate_tlb=False))
        if name == "unmapped":
            blocks = [VaBlock(index, BIG_PAGE) for index in arg]
            return ("ok", [block.index for block in table.unmapped(blocks)])
        raise AssertionError(name)
    except MappingError as exc:
        return ("err", type(exc).__name__, str(exc))


def _observe(table):
    return (
        table.mapped_indices(),
        table.mapped_blocks,
        table.map_count,
        table.unmap_count,
        table.tlb_invalidations,
    )


@settings(max_examples=120, deadline=None)
@given(st.lists(_table_op, min_size=1, max_size=60))
def test_bitmap_page_table_matches_scalar_reference(ops):
    """Same ops -> bit-identical costs, counters, errors and mapped sets,
    including across deep-copy fork points."""
    vec = make_page_table("gpu0", vectorized=True)
    ref = make_page_table("gpu0", vectorized=False)
    forks = []
    for name, arg in ops:
        if name == "fork":
            forks.append((copy.deepcopy(vec), copy.deepcopy(ref)))
            continue
        out_vec = _apply(vec, name, arg)
        out_ref = _apply(ref, name, arg)
        assert out_vec == out_ref, (name, arg)
        assert _observe(vec) == _observe(ref)
        # Probes agree everywhere the op touched.
        probe = [arg] if isinstance(arg, int) else arg
        for index in probe:
            assert vec.is_mapped(index) == ref.is_mapped(index)
    # Forked copies stayed frozen at their fork point and still agree.
    for forked_vec, forked_ref in forks:
        assert _observe(forked_vec) == _observe(forked_ref)
        # A forked copy is independently mutable and stays equivalent.
        index = 123_456
        assert forked_vec.map_block(index) == forked_ref.map_block(index)
        assert _observe(forked_vec) == _observe(forked_ref)
        assert not vec.is_mapped(index) and not ref.is_mapped(index)


_driver_op = st.tuples(
    st.sampled_from(
        [
            "prefetch_gpu",
            "prefetch_cpu",
            "gpu_fault",
            "gpu_write",
            "host_write",
            "discard_eager",
            "discard_lazy",
        ]
    ),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=1, max_value=4),  # span length
)


def _run_driver_sequence(ops, vectorized: bool):
    """Apply a random fault/prefetch/discard sequence; return the full
    observable state (simulated clock, counters, traffic, residency)."""
    env = Environment()
    driver = UvmDriver(
        env, pcie_gen4(), UvmDriverConfig(vectorized=vectorized)
    )
    driver.register_gpu("gpu0", 6 * 2 * MIB)
    blocks = [VaBlock(100 + i, BIG_PAGE) for i in range(12)]
    driver.register_blocks(blocks)

    def run(generator):
        env.run(until=env.process(generator))

    for name, start, span in ops:
        selected = blocks[start : start + span]
        if name == "prefetch_gpu":
            run(driver.prefetch(selected, "gpu0"))
        elif name == "prefetch_cpu":
            run(driver.prefetch(selected, "cpu"))
        elif name == "gpu_fault":
            faulting = [
                b for b in selected if driver.gpu_needs_fault("gpu0", b)
            ]
            run(driver.handle_gpu_faults("gpu0", faulting))
        elif name == "gpu_write":
            run(driver.prefetch(selected, "gpu0"))
            for block in selected:
                driver.note_access(block, AccessMode.WRITE)
        elif name == "host_write":
            run(
                driver.make_resident_cpu(
                    selected, TransferReason.FAULT_MIGRATION, True
                )
            )
            for block in selected:
                driver.note_access(block, AccessMode.WRITE)
        elif name == "discard_eager":
            for block in selected:
                if not block.discarded:
                    driver.discard_block_eager(block)
        elif name == "discard_lazy":
            for block in selected:
                if not block.discarded:
                    driver.discard_block_lazy(block)
    driver.finalize()
    table = driver.gpu_page_table("gpu0")
    return (
        env.now,
        driver.counters.as_dict(),
        driver.traffic.total_bytes,
        driver.traffic.bytes_h2d,
        driver.traffic.bytes_d2h,
        driver.rmt.useful_bytes,
        driver.rmt.redundant_bytes,
        table.mapped_indices(),
        table.map_count,
        table.unmap_count,
        table.tlb_invalidations,
        driver.cpu_page_table.mapped_indices(),
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(_driver_op, min_size=1, max_size=25))
def test_driver_runs_identically_with_either_page_table(ops):
    """The ``vectorized`` knob changes nothing observable: simulated
    clock (bit-for-bit floats), counters, traffic and residency all
    match between the bitmap and scalar implementations."""
    assert _run_driver_sequence(ops, vectorized=True) == _run_driver_sequence(
        ops, vectorized=False
    )


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_chaos_schedules_identical_across_page_table_implementations(seed):
    """Under random chaos schedules the whole experiment result is
    byte-identical with the bitmap or scalar page table."""
    from repro.harness.sweep import SweepPoint, execute_point

    def result_dict(vectorized: bool):
        point = SweepPoint(
            workload="fir",
            system="UvmDiscard",
            ratio=2.0,
            scale=0.03125,
            driver=(("vectorized", vectorized),),
            chaos=(
                ("seed", seed),
                ("transfer_fault_interval", 40),
                ("link_degrade_interval", 60),
            ),
        )
        result = execute_point(point)
        assert result is not None
        return result.to_dict()

    fast = result_dict(True)
    slow = result_dict(False)
    # The driver override differs between the two runs only by the
    # implementation knob; everything measured must match exactly.
    assert fast == slow
