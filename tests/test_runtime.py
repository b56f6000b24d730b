"""Tests for repro.runtime (agents, simulator, trace, messages)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.runtime import (
    AckMessage,
    BroadcastMessage,
    ColumnarTrace,
    DataMessage,
    ExecutionTrace,
    LockstepProgram,
    NodeAgent,
    Simulator,
    SlotRecord,
    spawn_agent_rngs,
)
from repro.sinr import Channel, Reception, SINRParameters, Transmission

from .conftest import make_node


class _BeaconAgent(NodeAgent):
    """Transmits in every even slot; records what it hears otherwise."""

    def __init__(self, node, rng, power: float, transmit: bool):
        super().__init__(node, rng)
        self.power = power
        self.transmit = transmit
        self.heard: list[tuple[int, int]] = []

    def act(self, slot: int):
        if self.transmit and slot % 2 == 0:
            return Transmission(self.node, self.power, BroadcastMessage(self.node))
        return None

    def observe(self, slot: int, reception: Reception | None) -> None:
        if reception is not None:
            self.heard.append((slot, reception.sender.id))

    def is_done(self) -> bool:
        return bool(self.heard)


class _BeaconProgram(LockstepProgram):
    """Position 0 transmits in every even slot; records every decode."""

    def __init__(self, nodes, power: float):
        self.nodes = nodes
        self.power = power
        self.heard: list[tuple[int, int, int]] = []

    def transmit(self, slot: int):
        if slot % 2 == 0:
            return np.array([0], dtype=np.intp), np.array([self.power])
        return np.zeros(0, dtype=np.intp), np.zeros(0)

    def receive(self, slot: int, listeners, senders) -> None:
        self.heard += [(slot, rx, src) for rx, src in zip(listeners.tolist(), senders.tolist())]


def _make_simulator(params) -> tuple[Simulator, list[_BeaconAgent]]:
    power = params.min_power_for(2.0)
    nodes = [make_node(0, 0, 0), make_node(1, 1, 0), make_node(2, 2, 0)]
    rngs = spawn_agent_rngs(np.random.default_rng(0), len(nodes))
    agents = [
        _BeaconAgent(nodes[0], rngs[0], power, transmit=True),
        _BeaconAgent(nodes[1], rngs[1], power, transmit=False),
        _BeaconAgent(nodes[2], rngs[2], power, transmit=False),
    ]
    return Simulator(agents, Channel(params)), agents


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

    def test_data_message_defaults(self):
        message = DataMessage(sender=make_node(0, 0, 0), payload=42)
        assert message.payload == 42
        assert message.destination_id is None
        assert message.metadata == {}


class TestSpawnRngs:
    def test_count_and_independence(self):
        parent = np.random.default_rng(1)
        children = spawn_agent_rngs(parent, 3)
        assert len(children) == 3
        draws = {child.integers(0, 2**31) for child in children}
        assert len(draws) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_agent_rngs(np.random.default_rng(0), -1)


class TestSimulator:
    def test_step_delivers_receptions(self, params):
        simulator, agents = _make_simulator(params)
        # The default columnar trace returns no record from step(); the
        # slot is read back from the trace instead.
        assert simulator.step(label="beacon") is None
        record = simulator.trace.records[-1]
        assert record.transmitters == (0,)
        assert set(record.receptions) == {1, 2}
        assert agents[1].heard and agents[1].heard[0][1] == 0

    def test_run_counts_slots(self, params):
        simulator, _ = _make_simulator(params)
        trace = simulator.run(4, label="x")
        assert trace.slots_used == 4
        assert simulator.current_slot == 4

    def test_duplicate_agent_ids_rejected(self, params):
        node = make_node(0, 0, 0)
        rngs = spawn_agent_rngs(np.random.default_rng(0), 2)
        agents = [
            _BeaconAgent(node, rngs[0], 1.0, True),
            _BeaconAgent(node, rngs[1], 1.0, False),
        ]
        with pytest.raises(ProtocolError):
            Simulator(agents, Channel(params))


class TestLockstepProgram:
    def test_program_matches_agents(self, params):
        simulator, agents = _make_simulator(params)
        simulator.run(4, label="beacon")
        program = _BeaconProgram([agent.node for agent in agents], agents[0].power)
        lockstep = Simulator(program, Channel(params))
        lockstep.run(4, label="beacon")
        assert lockstep.current_slot == 4
        assert lockstep.trace.records == simulator.trace.records
        assert program.heard == [(0, 1, 0), (0, 2, 0), (2, 1, 0), (2, 2, 0)]
        assert agents[1].heard == [(0, 0), (2, 0)]

    def test_program_needs_a_cached_channel(self, params):
        class OpaqueChannel(Channel):
            pass

        _, agents = _make_simulator(params)
        program = _BeaconProgram([agent.node for agent in agents], agents[0].power)
        with pytest.raises(ProtocolError, match="CachedChannel"):
            Simulator(program, OpaqueChannel(params)).step()

    def test_program_duplicate_ids_rejected(self, params):
        node = make_node(0, 0, 0)
        with pytest.raises(ProtocolError, match="duplicate node ids"):
            Simulator(_BeaconProgram([node, node], 1.0), Channel(params))


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
        for backend in (ColumnarTrace, ExecutionTrace):
            from_lists, from_arrays = backend(), backend()
            for slot, tx, rx, src, label in slots:
                from_lists.append_slot(slot, tx, rx, src, label)
                from_arrays.append_slot(
                    slot, np.array(tx, dtype=np.int64), np.array(rx, dtype=np.intp), np.array(src), label
                )
            assert from_arrays.records == from_lists.records
            assert from_lists.records[0].receptions == {1: 4, 2: 7}
            if backend is ColumnarTrace:
                assert [getattr(from_arrays, c) for c in columns] == [
                    getattr(from_lists, c) for c in columns
                ]
