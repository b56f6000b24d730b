"""The seed per-object slot engine (oracle of the lockstep ``Simulator``)."""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ProtocolError
from repro.obs import OBS
from repro.runtime import ExecutionTrace
from repro.sinr import CachedChannel, Channel, Transmission

from .agent import NodeAgent


class LegacySimulator:
    """Steps one :class:`NodeAgent` per node through ``Channel.resolve``.

    Every slot builds :class:`~repro.sinr.Transmission` objects from the
    agents' ``act``, resolves them over node objects and hands each agent
    its :class:`~repro.sinr.Reception`, exactly as the seed engine did; the
    array engine must reproduce its traces and deliveries.  A plain
    :class:`Channel` is upgraded to a :class:`CachedChannel` over the
    agents' nodes, as ``Simulator`` does.
    """

    def __init__(self, agents: Sequence[NodeAgent], channel: Channel):
        self.agents = list(agents)
        nodes = [agent.node for agent in self.agents]
        if len({node.id for node in nodes}) != len(nodes):
            raise ProtocolError("duplicate node ids among agents")
        if type(channel) is Channel:
            channel = CachedChannel(channel.params, nodes)
        self.channel = channel
        self.trace = ExecutionTrace()
        self._slot = 0

    @property
    def current_slot(self) -> int:
        return self._slot

    def step(self, label: str = "") -> None:
        slot = self._slot
        transmissions: list[Transmission] = []
        listeners = []
        for agent in self.agents:
            action = agent.act(slot)
            if action is None:
                listeners.append(agent.node)
            else:
                if action.sender.id != agent.node_id:
                    raise ProtocolError(
                        f"agent {agent.node_id} attempted to transmit as node {action.sender.id}"
                    )
                transmissions.append(action)

        # The slot reaches the channel only under a slot-dependent gain
        # model, so channels overriding the two-argument resolve still work.
        if self.channel.params.effective_gain_model is not None:
            receptions = self.channel.resolve(transmissions, listeners, slot)
        else:
            receptions = self.channel.resolve(transmissions, listeners)
        for agent in self.agents:
            agent.observe(slot, receptions.get(agent.node_id))

        transmitter_ids = [t.sender.id for t in transmissions]
        self.trace.append_slot(
            slot,
            transmitter_ids,
            list(receptions),
            [rec.sender.id for rec in receptions.values()],
            label,
        )
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("sim.slots")
            if transmitter_ids:
                registry.inc("sim.transmissions", len(transmitter_ids))
            if receptions:
                registry.inc("sim.receptions", len(receptions))
        self._slot += 1

    def run(self, slots: int, label: str = "") -> ExecutionTrace:
        for _ in range(slots):
            self.step(label)
        return self.trace
