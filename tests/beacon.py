"""A beacon protocol in both forms: one ``LockstepProgram`` and one agent per node.

The slot-engine tests and micro-benchmarks step :class:`BeaconProgram`
through ``Simulator`` / ``NetSimulator`` and, where they compare against
the per-agent oracle engines, :class:`BeaconAgent` through those.  Given
the same nodes, schedule and generators, both forms transmit the same
frames and hear the same senders in the same slots.

Schedule: without generators, node ``i`` beacons in slot ``s`` when
``s % period == id % period``; with one generator per node, it beacons when
its own coin falls below ``probability`` (every node that is up flips one
coin per slot).  Nodes outside ``senders`` flip their coins but never
transmit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry import Node
from repro.runtime import LockstepProgram
from repro.sinr import Reception, Transmission

from .oracles import NodeAgent

__all__ = ["BeaconAgent", "BeaconProgram"]


class BeaconProgram(LockstepProgram):
    """The beacon protocol as arrays.

    ``heard[i]`` lists ``(slot, sender id)`` for every frame position ``i``
    received, delayed ones included.  A frame's message is its send slot,
    so every delayed frame also lands in ``late`` as ``(arrival slot,
    listener id, sender id, send slot)``.  A node is done once it has heard
    a frame.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        power: float,
        *,
        period: int = 2,
        rngs: Sequence[np.random.Generator] | None = None,
        probability: float = 0.3,
        senders: Sequence[int] | None = None,
    ):
        self.nodes = list(nodes)
        n = len(self.nodes)
        self.power = power
        self.period = period
        self.rngs = rngs
        self.probability = probability
        self.ids = np.array([node.id for node in self.nodes], dtype=np.int64)
        self.sends = np.ones(n, dtype=bool) if senders is None else np.isin(np.arange(n), senders)
        self.down = np.zeros(n, dtype=bool)
        self.heard: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.late: list[tuple[int, int, int, int]] = []

    def transmit(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        up = ~self.down
        if self.rngs is None:
            fire = slot % self.period == self.ids % self.period
        else:
            fire = np.zeros(len(self.nodes), dtype=bool)
            for i in np.flatnonzero(up).tolist():
                fire[i] = self.rngs[i].random() < self.probability
        tx = np.flatnonzero(fire & up & self.sends)
        return tx, np.full(tx.size, self.power)

    def receive(self, slot: int, listeners: np.ndarray, senders: np.ndarray) -> None:
        for rx, src in zip(listeners.tolist(), self.ids[senders].tolist()):
            self.heard[rx].append((slot, src))

    def done(self) -> np.ndarray:
        return np.array([bool(frames) for frames in self.heard], dtype=bool)

    def on_crash(self, positions: np.ndarray, slot: int) -> None:
        self.down[positions] = True

    def on_recover(self, positions: np.ndarray, slot: int) -> None:
        self.down[positions] = False

    def message(self, slot: int, senders: np.ndarray) -> np.ndarray:
        return np.full(senders.size, slot, dtype=np.int64)

    def receive_late(
        self, slot: int, listeners: np.ndarray, senders: np.ndarray, messages: np.ndarray
    ) -> None:
        self.receive(slot, listeners, senders)
        for rx, src, sent in zip(listeners.tolist(), self.ids[senders].tolist(), messages.tolist()):
            self.late.append((slot, int(self.ids[rx]), src, sent))


class BeaconAgent(NodeAgent):
    """One node of the beacon protocol; ``heard`` as in :class:`BeaconProgram`."""

    def __init__(
        self,
        node: Node,
        rng: np.random.Generator,
        power: float,
        *,
        period: int = 2,
        coin: bool = False,
        probability: float = 0.3,
        sends: bool = True,
    ):
        super().__init__(node, rng)
        self.power = power
        self.period = period
        self.coin = coin
        self.probability = probability
        self.sends = sends
        self.heard: list[tuple[int, int]] = []

    def act(self, slot: int) -> Transmission | None:
        if self.coin:
            fire = self.rng.random() < self.probability
        else:
            fire = slot % self.period == self.node_id % self.period
        if fire and self.sends:
            return Transmission(self.node, self.power, ("beacon", self.node_id, slot))
        return None

    def observe(self, slot: int, reception: Reception | None) -> None:
        if reception is not None:
            self.heard.append((slot, reception.sender.id))

    def is_done(self) -> bool:
        return bool(self.heard)
