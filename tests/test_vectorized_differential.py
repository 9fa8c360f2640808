"""Differential property test: bitmap page table vs scalar reference.

The bitmap-slab page table the driver uses (:class:`~repro.vm.page_table.
BitmapPageTable`) and the plain set-based reference
(:class:`~repro.vm.page_table.PageTable`) must be observationally
byte-identical — same costs bit-for-bit, same counters, same errors
with the same messages, same mapped sets — under any operation
sequence, including deep-copy fork points (the snapshot machinery
deep-copies page tables).  Hypothesis drives the sequences; the
generated corpus (``tests/test_generated_corpus.py``) pins whole-driver
runs on the bitmap table.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver import VaBlock
from repro.units import BIG_PAGE
from repro.vm.page_table import BitmapPageTable, MappingError, PageTable

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
    # The eviction run's batch calls; a repeated index raises midway.
    st.tuples(st.just("map_blocks"), st.lists(_INDEX_BANDS, max_size=12)),
    st.tuples(st.just("unmap_blocks"), st.lists(_INDEX_BANDS, max_size=12)),
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
        if name == "map_blocks":
            return ("ok", table.map_blocks(arg))
        if name == "unmap_blocks":
            return ("ok", table.unmap_blocks(arg))
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
    vec = BitmapPageTable("gpu0")
    ref = PageTable("gpu0")
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
