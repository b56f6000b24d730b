"""Tests for repro.runtime (lockstep programs, simulator, trace)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.netsim import NetSimulator
from repro.runtime import ExecutionTrace, Simulator, SlotRecord
from repro.sinr import CachedChannel, Channel

from .beacon import BeaconAgent, BeaconProgram
from .conftest import make_node
from .oracles import AckMessage, BroadcastMessage, LegacySimulator


def _nodes():
    return [make_node(0, 0, 0), make_node(1, 1, 0), make_node(2, 2, 0)]


def _make_simulator(params) -> tuple[Simulator, BeaconProgram]:
    """Node 0 beacons in every even slot; nodes 1 and 2 only listen."""
    program = BeaconProgram(_nodes(), params.min_power_for(2.0), senders=[0])
    return Simulator(program, Channel(params)), program


class TestMessages:
    def test_broadcast_message_fields(self):
        node = make_node(3, 1, 2)
        message = BroadcastMessage(sender=node, round_index=2)
        assert message.sender_id == 3
        assert message.round_index == 2

    def test_ack_message_fields(self):
        node = make_node(4, 0, 0)
        ack = AckMessage(sender=node, target_id=7, round_index=1, slot_pair=9)
        assert ack.sender_id == 4
        assert ack.target_id == 7


class TestSimulator:
    def test_step_delivers_receptions(self, params):
        simulator, program = _make_simulator(params)
        # The columnar trace materializes no record per step; the slot is
        # read back from the trace instead.
        assert simulator.step(label="beacon") is None
        record = simulator.trace.records[-1]
        assert record.transmitters == (0,)
        assert set(record.receptions) == {1, 2}
        assert program.heard[1] == [(0, 0)]

    def test_run_counts_slots(self, params):
        simulator, _ = _make_simulator(params)
        trace = simulator.run(4, label="x")
        assert trace.slots_used == 4
        assert simulator.current_slot == 4

    def test_duplicate_agent_ids_rejected(self, params):
        node = make_node(0, 0, 0)
        with pytest.raises(ProtocolError, match="duplicate node ids"):
            NetSimulator(BeaconProgram([node, node], 1.0), Channel(params))


class TestLockstepProgram:
    def test_program_matches_agents(self, params):
        simulator, program = _make_simulator(params)
        simulator.run(4, label="beacon")
        power = program.power
        rngs = np.random.default_rng(0).spawn(3)
        agents = [
            BeaconAgent(node, rng, power, sends=node.id == 0) for node, rng in zip(_nodes(), rngs)
        ]
        legacy = LegacySimulator(agents, Channel(params))
        legacy.run(4, label="beacon")
        assert simulator.current_slot == legacy.current_slot == 4
        assert simulator.trace.records == legacy.trace.records
        assert program.heard == [agent.heard for agent in agents]
        assert program.heard == [[], [(0, 0), (2, 0)], [(0, 0), (2, 0)]]

    def test_program_needs_a_cached_channel(self, params):
        class OpaqueChannel(Channel):
            pass

        program = BeaconProgram(_nodes(), 1.0)
        with pytest.raises(ProtocolError, match="CachedChannel"):
            Simulator(program, OpaqueChannel(params)).step()

    @pytest.mark.parametrize("extra", [False, True], ids=["same-nodes", "superset"])
    def test_channel_in_another_node_order_decodes_the_same(self, params, extra):
        """A channel holding the program's nodes in another order (or more
        nodes) is addressed through its id map, not position by position."""
        xy = np.random.default_rng(3).uniform(0.0, 8.0, size=(6, 2))
        nodes = [make_node(i, x, y) for i, (x, y) in enumerate(xy.tolist())]
        power = params.min_power_for(4.0)

        def run(channel: Channel) -> tuple[list, list]:
            program = BeaconProgram(nodes, power, senders=[0, 4])
            simulator = Simulator(program, channel)
            simulator.run(6, label="beacon")
            return simulator.trace.records, program.heard

        universe = nodes[::-1] + ([make_node(9, 40.0, 40.0)] if extra else [])
        reordered = run(CachedChannel(params, universe))
        assert reordered == run(Channel(params))
        assert any(reordered[1])

    def test_program_duplicate_ids_rejected(self, params):
        node = make_node(0, 0, 0)
        with pytest.raises(ProtocolError, match="duplicate node ids"):
            Simulator(BeaconProgram([node, node], 1.0), Channel(params))


class TestTrace:
    def test_counts(self):
        trace = ExecutionTrace()
        trace.record(SlotRecord(slot=0, transmitters=(1, 2), receptions={3: 1}, label="a"))
        trace.record(SlotRecord(slot=1, transmitters=(), receptions={}, label="b"))
        assert trace.slots_used == 2
        assert trace.busy_slots() == 1
        assert trace.transmissions_sent == 2
        assert trace.successful_receptions == 1

    def test_label_filter_and_summary(self):
        trace = ExecutionTrace(metadata={"phase": "test"})
        trace.record(SlotRecord(slot=0, transmitters=(0,), receptions={}, label="x"))
        assert len(trace.slots_with_label("x")) == 1
        summary = trace.summary()
        assert summary["slots_used"] == 1
        assert summary["phase"] == "test"

    def test_append_slot_takes_lists_or_arrays(self):
        slots = [(0, [4, 7], [1, 2], [4, 7], "a"), (1, [], [], [], "b"), (2, [3], [5], [3], "a")]
        columns = ("_slots", "_labels", "_tx_flat", "_tx_offsets", "_rx_listeners", "_rx_senders", "_rx_offsets")
        from_lists, from_arrays = ExecutionTrace(), ExecutionTrace()
        for slot, tx, rx, src, label in slots:
            from_lists.append_slot(slot, tx, rx, src, label)
            from_arrays.append_slot(
                slot, np.array(tx, dtype=np.int64), np.array(rx, dtype=np.intp), np.array(src), label
            )
        assert from_arrays.records == from_lists.records
        assert from_lists.records[0].receptions == {1: 4, 2: 7}
        for column in columns:
            assert np.array_equal(getattr(from_arrays, column), getattr(from_lists, column))
