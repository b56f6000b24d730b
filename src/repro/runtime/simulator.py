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

The ``trace_level`` knob selects the trace backend when no trace is passed:
``"records"`` (seed :class:`ExecutionTrace`), ``"columnar"`` (flat arrays,
records materialized on demand) or ``"counts"`` (columnar without per-slot
reception detail).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import ProtocolError
from ..obs.runtime import OBS
from ..obs.spans import span
from ..sinr import CachedChannel, Channel, Reception, Transmission
from ..sinr.channel import ensure_positive_powers
from ..state import DecodeWorkspace
from .agent import NodeAgent
from .trace import ColumnarTrace, ExecutionTrace, SlotRecord

__all__ = ["Simulator", "spawn_agent_rngs"]


def spawn_agent_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Create ``count`` independent child generators from a parent generator."""
    if count < 0:
        raise ValueError("count must be non-negative")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


_TRACE_LEVELS = ("records", "columnar", "counts")


class Simulator:
    """Runs a collection of agents over a shared SINR channel.

    Args:
        agents: the per-node protocol agents.
        channel: the SINR channel instance.
        trace: optional pre-existing trace to append to (overrides
            ``trace_level``).
        trace_level: trace backend to create when ``trace`` is ``None``:
            ``"records"``, ``"columnar"`` or ``"counts"``.
    """

    def __init__(
        self,
        agents: Sequence[NodeAgent],
        channel: Channel,
        trace: ExecutionTrace | None = None,
        *,
        trace_level: str = "records",
    ):
        ids = [agent.node_id for agent in agents]
        if len(ids) != len(set(ids)):
            raise ProtocolError("duplicate node ids among agents")
        if trace_level not in _TRACE_LEVELS:
            raise ValueError(f"unknown trace_level {trace_level!r}, expected one of {_TRACE_LEVELS}")
        self.agents: list[NodeAgent] = list(agents)
        # The agent set is fixed for the simulator's lifetime, so a plain
        # channel is upgraded to one viewing a NetworkState over the agents'
        # nodes (its store chosen by size), which every slot's decode
        # gathers from; subclassed channels are left untouched.
        if type(channel) is Channel:
            channel = CachedChannel(channel.params, [agent.node for agent in self.agents])
        self.channel = channel
        if trace is None:
            if trace_level == "records":
                trace = ExecutionTrace()
            else:
                trace = ColumnarTrace(reception_detail=(trace_level == "columnar"))
        self.trace = trace
        self._slot = 0
        self._node_ids: list[int] = ids
        self._pos_by_id: dict[int, int] = {node_id: i for i, node_id in enumerate(ids)}
        # Hot-loop hoists: the agent set is fixed for the simulator's
        # lifetime, so bound methods and nodes are captured once instead of
        # being looked up per agent per slot.
        self._nodes = [agent.node for agent in self.agents]
        self._act_batch = [agent.act_batch for agent in self.agents]
        self._observe = [agent.observe for agent in self.agents]
        self._listening = np.empty(len(self.agents), dtype=bool)
        # Index of each agent's node in the channel's distance cache, when the
        # channel is exactly a CachedChannel covering every agent (a subclass
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
                # Agent position == cache index (the simulator built the
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
    ) -> tuple[list[Reception | None], list[tuple[int, int]]]:
        """Resolve the slot's transmissions through the SINR channel.

        Returns per-agent-position receptions plus the (listener id, sender
        id) pairs in trace order.
        """
        node_ids = self._node_ids
        nodes = self._nodes
        n = len(nodes)
        listening = self._listening

        receptions: list[Reception | None] = [None] * n
        pairs: list[tuple[int, int]] = []
        if tx_pos:
            # Validate before branching so a non-positive power raises even
            # in slots with no listeners, exactly like the seed engine
            # (where Transmission.__post_init__ runs for every action).
            power_arr = np.array(powers, dtype=float)
            ensure_positive_powers(power_arr)
        if tx_pos and len(tx_pos) < n:
            if self._full_universe:
                tx_arr = np.array(tx_pos, dtype=np.intp)
                best, sinr, ok = self.channel.resolve_indices_full(
                    tx_arr, power_arr, slot=slot, workspace=self._workspace
                )
                # Half-duplex: transmitter columns never decode.
                for pos in np.nonzero(ok & listening)[0].tolist():
                    b = int(best[pos])
                    src = tx_pos[b]
                    receptions[pos] = Reception(
                        sender=nodes[src], message=messages[b], sinr=float(sinr[pos])
                    )
                    pairs.append((node_ids[pos], node_ids[src]))
            elif self._cache_idx is not None:
                tx_arr = np.array(tx_pos, dtype=np.intp)
                rx_arr = np.nonzero(listening)[0]
                best, sinr, ok = self.channel.resolve_indices(
                    self._cache_idx[tx_arr],
                    self._cache_idx[rx_arr],
                    power_arr,
                    slot=slot,
                    workspace=self._workspace,
                )
                for j in np.nonzero(ok)[0].tolist():
                    b = int(best[j])
                    src = tx_pos[b]
                    pos = int(rx_arr[j])
                    receptions[pos] = Reception(
                        sender=nodes[src], message=messages[b], sinr=float(sinr[j])
                    )
                    pairs.append((node_ids[pos], node_ids[src]))
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
                    pos = self._pos_by_id[node_id]
                    receptions[pos] = reception
                    pairs.append((node_id, reception.sender.id))
        return receptions, pairs

    def _deliver_batch(self, slot: int, receptions: list[Reception | None]) -> None:
        """Deliver the slot outcome to every agent, in agent order."""
        for observe, reception in zip(self._observe, receptions):
            observe(slot, reception)

    def _step_batch(self, label: str) -> SlotRecord | None:
        slot = self._slot
        tx_pos, powers, messages = self._poll_batch(slot)
        receptions, pairs = self._decode_batch(slot, tx_pos, powers, messages)
        self._deliver_batch(slot, receptions)
        record = self.trace.append_slot(
            slot, [self._node_ids[i] for i in tx_pos], pairs, label
        )
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("sim.slots")
            if tx_pos:
                registry.inc("sim.transmissions", len(tx_pos))
            if pairs:
                registry.inc("sim.receptions", len(pairs))
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

    def run_until(
        self,
        predicate: Callable[["Simulator"], bool],
        max_slots: int,
        label: str = "",
    ) -> ExecutionTrace:
        """Execute slots until ``predicate(self)`` holds or ``max_slots`` elapse.

        The predicate is evaluated before each slot; if it is already true no
        slot is executed.

        Raises:
            ProtocolError: if the slot budget is exhausted without the
                predicate becoming true.
        """
        executed = 0
        with span("sim.run_until", max_slots=max_slots, label=label):
            while not predicate(self):
                if executed >= max_slots:
                    raise ProtocolError(
                        f"predicate not satisfied within {max_slots} slots (label={label!r})"
                    )
                self.step(label)
                executed += 1
        return self.trace

    def all_done(self) -> bool:
        """Whether every agent reports completion."""
        return all(agent.is_done() for agent in self.agents)

    def agents_by_id(self) -> dict[int, NodeAgent]:
        """Mapping from node id to agent."""
        return {agent.node_id: agent for agent in self.agents}
