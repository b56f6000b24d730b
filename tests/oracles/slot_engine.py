"""The seed per-object slot engine (oracle of the batch ``Simulator``)."""

from __future__ import annotations

from repro.exceptions import ProtocolError
from repro.obs import OBS
from repro.runtime import Simulator, SlotRecord
from repro.sinr import Transmission


class LegacySimulator(Simulator):
    """``Simulator`` stepping through ``NodeAgent.act`` and ``Channel.resolve``.

    Every slot builds :class:`~repro.sinr.Transmission` objects from the
    agents' ``act`` and resolves them over node objects, exactly as the seed
    engine did; the batch engine must reproduce its traces and deliveries.
    """

    def step(self, label: str = "") -> SlotRecord | None:
        transmissions: list[Transmission] = []
        transmitter_ids: list[int] = []
        listeners = []
        for agent in self.agents:
            action = agent.act(self._slot)
            if action is None:
                listeners.append(agent.node)
            else:
                if action.sender.id != agent.node_id:
                    raise ProtocolError(
                        f"agent {agent.node_id} attempted to transmit as node {action.sender.id}"
                    )
                transmissions.append(action)
                transmitter_ids.append(agent.node_id)

        receptions = self._resolve_objects(transmissions, listeners, self._slot)
        for agent in self.agents:
            agent.observe(self._slot, receptions.get(agent.node_id))

        record = self.trace.append_slot(
            self._slot,
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
        return record
