"""Property-based tests of the semantics oracle against a reference model.

The reference: after the last discard, the newest write is guaranteed
visible; losing it (data loss) makes subsequent reads corrupted until a
new write or discard.  Random event sequences must keep the oracle in
lockstep with this model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantics import DataOracle
from repro.driver.va_block import DiscardKind, VaBlock
from repro.units import BIG_PAGE

EVENTS = st.lists(
    st.sampled_from(["write", "rmw", "discard", "loss", "read"]),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(EVENTS)
def test_oracle_matches_reference_model(events):
    oracle = DataOracle(strict=False)
    block = VaBlock(7, BIG_PAGE)
    guaranteed_write = False  # a write since the last discard
    lost = False  # that write was dropped by the driver
    expected_corrupted_reads = 0

    for time, event in enumerate(events):
        if event in ("write", "rmw"):
            # A read-modify-write reads first: a lost write shows there.
            oracle.record_writes(float(time), [block], reads=event == "rmw")
            if event == "rmw" and lost:
                expected_corrupted_reads += 1
            guaranteed_write = True
            lost = False
        elif event == "discard":
            block.mark_discarded(DiscardKind.LAZY)
            oracle.record_discards(float(time), [block])
            guaranteed_write = False
            lost = False
        elif event == "loss":
            oracle.record_data_loss(float(time), block, "test loss")
            if guaranteed_write:
                lost = True
            # After a loss the driver also drops residency/discard state;
            # mirror the block-side effect of a reclaim.
            block.revive()
            block.populated = False
        else:  # read
            oracle.validate_reads(float(time), [block])
            if lost:
                expected_corrupted_reads += 1

    assert oracle.corrupted_read_count == expected_corrupted_reads


@settings(max_examples=100, deadline=None)
@given(EVENTS)
def test_correct_programs_never_flag(events):
    """Filtering out 'loss' events, no sequence produces corruption."""
    oracle = DataOracle(strict=True)
    block = VaBlock(9, BIG_PAGE)
    for time, event in enumerate(events):
        if event in ("write", "rmw"):
            oracle.record_writes(float(time), [block], reads=event == "rmw")
        elif event == "discard":
            block.mark_discarded(DiscardKind.EAGER)
            oracle.record_discards(float(time), [block])
        elif event == "read":
            oracle.validate_reads(float(time), [block])  # never raises
    assert oracle.corruption_count == 0
