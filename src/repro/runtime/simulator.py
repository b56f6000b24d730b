"""Lock-step slotted simulator.

The simulator advances global slotted time.  In every slot it polls each
agent for an action, feeds the resulting transmissions through the SINR
channel, and delivers to every listening agent whatever (if anything) that
agent decoded.  This is exactly the execution model of the paper: synchronized
clocks, slotted time, a single shared channel, no carrier sensing.

Agents are polled through :meth:`~repro.runtime.agent.NodeAgent.act_batch`,
transmitter/listener indices and powers are collected into arrays, and the
channel is resolved through
:meth:`~repro.sinr.channel.CachedChannel.resolve_indices` in one vectorized
pass that gathers its attenuation/fade blocks from the channel's backing
:class:`~repro.state.NetworkState`; :class:`~repro.sinr.Reception` objects
are built only for the listeners that decode.  Results are bit-for-bit
identical to the seed per-object engine, which the test suite keeps as its
parity oracle (the decode arithmetic is shared and agents consume the same
randomness either way).

The simulator also runs a :class:`~repro.runtime.agent.LockstepProgram` -
a protocol whose per-node state lives in arrays - in place of the agents:
each slot then asks the program for its transmitter positions, decodes them
through the same channel call and hands the program the decoded
(listener, sender) positions, with no per-node Python in between.

Without an explicit trace the simulator records into a
:class:`ColumnarTrace` (flat arrays, records materialized on demand); pass
``trace=ExecutionTrace()`` for the seed record store.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..exceptions import ProtocolError
from ..obs.runtime import OBS
from ..obs.spans import span
from ..sinr import CachedChannel, Channel, Reception, Transmission
from ..sinr.channel import ensure_positive_powers
from ..state import DecodeWorkspace
from .agent import LockstepProgram, NodeAgent
from .trace import ColumnarTrace, ExecutionTrace, SlotRecord

__all__ = ["Simulator", "spawn_agent_rngs"]

#: Positions of an empty slot (no transmitter, or no decode).
_NO_IDS = np.zeros(0, dtype=np.intp)


def spawn_agent_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Create ``count`` independent child generators from a parent generator."""
    if count < 0:
        raise ValueError("count must be non-negative")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


class Simulator:
    """Runs a collection of agents over a shared SINR channel.

    Args:
        agents: the per-node protocol agents, or one
            :class:`~repro.runtime.agent.LockstepProgram` running the
            protocol of every node as arrays.
        channel: the SINR channel instance.
        trace: optional pre-existing trace to append to (default: a fresh
            :class:`ColumnarTrace`).
    """

    def __init__(
        self,
        agents: Sequence[NodeAgent] | LockstepProgram,
        channel: Channel,
        trace: ExecutionTrace | None = None,
    ):
        if isinstance(agents, LockstepProgram):
            self.program: LockstepProgram | None = agents
            self.agents: list[NodeAgent] = []
            nodes = list(agents.nodes)
        else:
            self.program = None
            self.agents = list(agents)
            nodes = [agent.node for agent in self.agents]
        ids = [node.id for node in nodes]
        if len(ids) != len(set(ids)):
            raise ProtocolError("duplicate node ids among agents")
        # The node set is fixed for the simulator's lifetime, so a plain
        # channel is upgraded to one viewing a NetworkState over the
        # nodes (its store chosen by size), which every slot's decode
        # gathers from; subclassed channels are left untouched.
        if type(channel) is Channel:
            channel = CachedChannel(channel.params, nodes)
        self.channel = channel
        self.trace = trace if trace is not None else ColumnarTrace()
        self._slot = 0
        self._node_ids: list[int] = ids
        self._ids = np.asarray(ids, dtype=np.int64)
        self._pos_by_id: dict[int, int] = {node_id: i for i, node_id in enumerate(ids)}
        # Hot-loop hoists: the agent set is fixed for the simulator's
        # lifetime, so bound methods and nodes are captured once instead of
        # being looked up per agent per slot.
        self._nodes = nodes
        self._act_batch = [agent.act_batch for agent in self.agents]
        self._observe = [agent.observe for agent in self.agents]
        self._listening = np.empty(len(nodes), dtype=bool)
        # Index of each node in the channel's distance cache, when the
        # channel is exactly a CachedChannel covering every node (a subclass
        # may override `resolve`, so it must keep going through the object
        # path).
        self._cache_idx: np.ndarray | None = None
        self._full_universe = False
        # Scratch arena for the batch decode: every slot's gathered blocks,
        # received-power matrix and per-listener vectors live in these
        # reused buffers (results are consumed within the slot, so the
        # view-until-next-decode contract holds by construction).
        self._workspace = DecodeWorkspace()
        if type(self.channel) is CachedChannel:
            try:
                self._cache_idx = np.array(
                    [self.channel.cache.index_of_id(node_id) for node_id in ids], dtype=np.intp
                )
            except KeyError:
                self._cache_idx = None
            else:
                # Node position == cache index (the simulator built the
                # channel itself, or an identical universe was passed): the
                # decode can run against all columns with a cheap row gather
                # and mask transmitters afterwards.
                self._full_universe = len(self.channel.cache) == len(ids) and bool(
                    np.array_equal(self._cache_idx, np.arange(len(ids)))
                )

    @property
    def current_slot(self) -> int:
        """Index of the next slot to execute."""
        return self._slot

    def _resolve_objects(
        self, transmissions: list[Transmission], listeners: list, slot: int
    ) -> dict[int, Reception]:
        """Object-path channel resolution, forwarding the slot when needed.

        The slot index is passed only when the channel's parameters carry a
        *stochastic* gain model (slot-dependent fading); custom channels that
        override ``resolve`` with the classic two-argument signature keep
        working unchanged under the deterministic model (including an
        explicit ``DeterministicPathLoss``).
        """
        if self.channel.params.effective_gain_model is not None:
            return self.channel.resolve(transmissions, listeners, slot)
        return self.channel.resolve(transmissions, listeners)

    def step(self, label: str = "") -> SlotRecord | None:
        """Execute one slot.

        Returns the slot's :class:`SlotRecord` when the trace backend stores
        records, ``None`` under a columnar trace (which does not materialize
        per-slot objects).
        """
        if self.program is not None:
            return self._step_program(label)
        return self._step_batch(label)

    # The batch step is split into three seams - poll, decode, deliver - so
    # that alternative engines (the fault-injected message-passing runtime in
    # ``repro.netsim``) can reuse the exact decode arithmetic while changing
    # who gets polled and which decoded messages actually arrive.  Composed
    # unchanged, the seams are bit-identical to the original monolithic step.

    def _poll_batch(self, slot: int) -> tuple[list[int], list[float], list[Any]]:
        """Poll every agent for the slot; fills ``self._listening`` in place."""
        tx_pos: list[int] = []
        powers: list[float] = []
        messages: list[Any] = []
        listening = self._listening
        listening[:] = True
        for i, act_batch in enumerate(self._act_batch):
            action = act_batch(slot)
            if action is not None:
                tx_pos.append(i)
                powers.append(action[0])
                messages.append(action[1])
                listening[i] = False
        return tx_pos, powers, messages

    def _decode_batch(
        self,
        slot: int,
        tx_pos: list[int],
        powers: list[float],
        messages: list[Any],
    ) -> tuple[list[Reception | None], np.ndarray, np.ndarray]:
        """Resolve the slot's transmissions through the SINR channel.

        Returns per-agent-position receptions plus the listener and sender
        id arrays of the decodes, in trace order.
        """
        nodes = self._nodes
        n = len(nodes)
        listening = self._listening

        receptions: list[Reception | None] = [None] * n
        rx_pos = src_pos = _NO_IDS
        if tx_pos:
            # Validate before branching so a non-positive power raises even
            # in slots with no listeners, exactly like the seed engine
            # (where Transmission.__post_init__ runs for every action).
            power_arr = np.array(powers, dtype=float)
            ensure_positive_powers(power_arr)
        if tx_pos and len(tx_pos) < n:
            if self._cache_idx is not None:
                tx_arr = np.array(tx_pos, dtype=np.intp)
                rx_pos, rx_best, rx_sinr_arr = self._decode_positions(slot, tx_arr, power_arr)
                src_pos = tx_arr[rx_best]
                rx_sinr = rx_sinr_arr.tolist()
            else:
                # Custom channel (or agents outside the cache): go through the
                # node-object protocol so overridden `resolve` semantics hold.
                transmissions = [
                    Transmission(sender=nodes[i], power=power, message=message)
                    for i, power, message in zip(tx_pos, powers, messages)
                ]
                listeners = [nodes[i] for i in np.nonzero(listening)[0].tolist()]
                resolved = self._resolve_objects(transmissions, listeners, slot)
                for node_id, reception in resolved.items():
                    receptions[self._pos_by_id[node_id]] = reception
                rx_ids = np.fromiter(resolved, dtype=np.int64, count=len(resolved))
                src_ids = np.array([rec.sender.id for rec in resolved.values()], dtype=np.int64)
                return receptions, rx_ids, src_ids
            for pos, b, value in zip(rx_pos.tolist(), rx_best.tolist(), rx_sinr):
                receptions[pos] = Reception(
                    sender=nodes[tx_pos[b]], message=messages[b], sinr=value
                )
        return receptions, self._ids[rx_pos], self._ids[src_pos]

    def _decode_positions(
        self, slot: int, tx_arr: np.ndarray, power_arr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode one slot over the cached channel, by node position.

        Only positions marked in ``self._listening`` may decode.  Returns the
        decoding positions, the index into ``tx_arr`` of the sender each one
        decoded, and their SINRs.
        """
        listening = self._listening
        if self._full_universe:
            best, sinr, ok = self.channel.resolve_indices_full(
                tx_arr, power_arr, slot=slot, workspace=self._workspace
            )
            # Half-duplex: transmitter columns never decode.
            rx_pos = np.flatnonzero(ok & listening)
            return rx_pos, best[rx_pos], sinr[rx_pos]
        assert self._cache_idx is not None
        rx_arr = np.flatnonzero(listening)
        best, sinr, ok = self.channel.resolve_indices(
            self._cache_idx[tx_arr],
            self._cache_idx[rx_arr],
            power_arr,
            slot=slot,
            workspace=self._workspace,
        )
        decoded = np.flatnonzero(ok)
        return rx_arr[decoded], best[decoded], sinr[decoded]

    def _deliver_batch(self, slot: int, receptions: list[Reception | None]) -> None:
        """Deliver the slot outcome to every agent, in agent order."""
        for observe, reception in zip(self._observe, receptions):
            observe(slot, reception)

    def _step_batch(self, label: str) -> SlotRecord | None:
        slot = self._slot
        tx_pos, powers, messages = self._poll_batch(slot)
        receptions, rx_ids, src_ids = self._decode_batch(slot, tx_pos, powers, messages)
        self._deliver_batch(slot, receptions)
        return self._record(slot, self._ids[tx_pos], rx_ids, src_ids, label)

    def _step_program(self, label: str) -> SlotRecord | None:
        """One slot of the lockstep program: poll, decode and deliver as arrays."""
        slot = self._slot
        program = self.program
        assert program is not None
        tx, powers = program.transmit(slot)
        rx, src = self._decode_program(slot, tx, powers)
        program.receive(slot, rx, src)
        ids = self._ids
        return self._record(slot, ids[tx], ids[rx], ids[src], label)

    def _decode_program(
        self, slot: int, tx: np.ndarray, powers: np.ndarray, down: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode a program's transmitters at ``powers``, by position.

        Every position that neither transmits nor is marked in ``down``
        listens.  Returns the decoding positions and the position each one
        decoded.
        """
        if not tx.size:
            return _NO_IDS, _NO_IDS
        ensure_positive_powers(powers)
        if tx.size == len(self._nodes):
            return _NO_IDS, _NO_IDS
        if self._cache_idx is None:
            raise ProtocolError("a lockstep program needs a CachedChannel holding all its nodes")
        listening = self._listening
        if down is None:
            listening[:] = True
        else:
            np.logical_not(down, out=listening)
        listening[tx] = False
        rx, best, _ = self._decode_positions(slot, tx, powers)
        return rx, tx[best]

    def _record(
        self, slot: int, tx_ids: np.ndarray, rx_ids: np.ndarray, src_ids: np.ndarray, label: str
    ) -> SlotRecord | None:
        """Trace the slot, count it and advance the clock."""
        record = self.trace.append_slot(slot, tx_ids, rx_ids, src_ids, label)
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("sim.slots")
            if tx_ids.size:
                registry.inc("sim.transmissions", int(tx_ids.size))
            if rx_ids.size:
                registry.inc("sim.receptions", int(rx_ids.size))
        self._slot += 1
        return record

    def run(self, slots: int, label: str = "") -> ExecutionTrace:
        """Execute a fixed number of slots."""
        if slots < 0:
            raise ValueError("slots must be non-negative")
        with span("sim.run", slots=slots, label=label):
            for _ in range(slots):
                self.step(label)
        return self.trace
