"""``ExecutionTrace`` keeps appended id arrays and flattens them on read.

The trace must read as if every slot had been copied into its columns on
append: a caller writing its arrays after ``append_slot`` changes nothing,
and reads interleaved with appends at any point stay exact.  The reference
is a plain list of ``SlotRecord`` built from copies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import ExecutionTrace, SlotRecord

ids = st.lists(st.integers(-(2**40), 2**40), max_size=6)


@st.composite
def slots(draw):
    """One slot: transmitters, (listener, sender) pairs, label, as lists or arrays."""
    transmitters = draw(ids)
    pairs = draw(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=6))
    label = draw(st.sampled_from(["", "broadcast", "ack"]))
    as_arrays = draw(st.booleans())
    return transmitters, [p[0] for p in pairs], [p[1] for p in pairs], label, as_arrays


def reference_summary(appended) -> dict:
    return {
        "slots_used": len(appended),
        "busy_slots": sum(1 for tx, _, _ in appended if tx),
        "transmissions_sent": sum(len(tx) for tx, _, _ in appended),
        "successful_receptions": sum(len(rx) for _, rx, _ in appended),
    }


def reference_record(slot, tx, rx, src, label) -> SlotRecord:
    return SlotRecord(slot=slot, transmitters=tuple(tx), receptions=dict(zip(rx, src)), label=label)


@settings(max_examples=60, deadline=None)
@given(run=st.lists(st.tuples(slots(), st.booleans()), max_size=14))
def test_reads_interleaved_with_appends_and_writes(run):
    trace = ExecutionTrace()
    expected: list[SlotRecord] = []
    appended = []
    for slot, ((tx, rx, src, label, as_arrays), read) in enumerate(run):
        columns = [np.array(c, dtype=np.int64) if as_arrays else list(c) for c in (tx, rx, src)]
        trace.append_slot(slot, *columns, label)
        expected.append(reference_record(slot, tx, rx, src, label))
        appended.append((tx, rx, src))
        # The caller reuses its buffers: the trace must not see it.
        for column in columns:
            if len(column):
                column[0] = -7
        if read:
            assert trace.records == expected
            assert trace.summary() == reference_summary(appended)
    assert trace.records == expected
    assert trace.summary() == reference_summary(appended)
    assert trace.slots_with_label("ack") == [r for r in expected if r.label == "ack"]


def test_handed_over_arrays_are_kept_without_a_copy():
    trace = ExecutionTrace()
    tx = np.array([4, 5], dtype=np.int64)
    trace._append_owned(0, tx, np.array([1]), np.array([4]), "b")
    trace.append_slot(1, [6], [], [], "a")
    assert trace.records == [SlotRecord(0, (4, 5), {1: 4}, "b"), SlotRecord(1, (6,), {}, "a")]
    assert trace.summary() == reference_summary([([4, 5], [1], [4]), ([6], [], [])])


def test_append_rejects_unpaired_listeners():
    with pytest.raises(ValueError, match="exactly one sender"):
        ExecutionTrace().append_slot(0, [1], [2, 3], [1])


#: Two id maps of three positions each, neither the identity.
ID_MAPS = (np.array([70, 50, 60], dtype=np.int64), np.array([9, 11, 13], dtype=np.int64))
positions = st.lists(st.integers(0, 2), max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    run=st.lists(
        st.tuples(st.sampled_from([None, 0, 1]), positions, positions, st.booleans()),
        max_size=12,
    )
)
def test_positions_map_to_ids_on_read(run):
    """Slots handed over as positions (under either id map) mixed with id
    slots read as if every slot had been appended as ids."""
    trace = ExecutionTrace()
    expected: list[SlotRecord] = []
    for slot, (id_map, tx, rx, read) in enumerate(run):
        src = rx[::-1]
        if id_map is None:
            trace.append_slot(slot, tx, rx, src, "ids")
            expected.append(reference_record(slot, tx, rx, src, "ids"))
        else:
            ids = ID_MAPS[id_map]
            columns = [np.array(c, dtype=np.intp) for c in (tx, rx, src)]
            trace._append_owned(slot, *columns, "positions", ids)
            mapped = [ids[c].tolist() for c in columns]
            expected.append(reference_record(slot, *mapped, "positions"))
        if read:
            assert trace.records == expected
    assert trace.records == expected
    assert trace.transmissions_sent == sum(len(r.transmitters) for r in expected)
