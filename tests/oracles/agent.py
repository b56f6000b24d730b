"""Per-node agents and the messages they exchange (the oracle protocol form).

Before every protocol became a ``LockstepProgram``, each was written as one
:class:`NodeAgent` per node: an object holding only that node's local state,
deciding at each slot whether to transmit (and what, at which power) or to
listen, and updating its state from whatever the channel delivered.  The
per-agent engines in this package step such agents, so the parity tests can
run a protocol in both forms and compare.

The paper distinguishes two message roles (Section 5): a *broadcast* is an
exploratory hello carrying only the sender's identity and position; an
*acknowledgment* answers one and carries both the acknowledger and the id of
the broadcaster it answers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.geometry import Node
from repro.sinr import Reception, Transmission

__all__ = ["AckMessage", "BroadcastMessage", "NodeAgent"]


@dataclass(frozen=True)
class BroadcastMessage:
    """Exploratory hello carrying the sender's identity and position."""

    sender: Node
    round_index: int = 0

    @property
    def sender_id(self) -> int:
        return self.sender.id


@dataclass(frozen=True)
class AckMessage:
    """Acknowledgment of a previous broadcast.

    Attributes:
        sender: the acknowledging node (the would-be parent / receiver).
        target_id: id of the node whose broadcast is being acknowledged.
        round_index: the protocol round in which the exchange happened.
        slot_pair: index of the slot-pair within the round (used as the link's
            schedule time stamp by ``Init``).
    """

    sender: Node
    target_id: int
    round_index: int = 0
    slot_pair: int = 0

    @property
    def sender_id(self) -> int:
        return self.sender.id


class NodeAgent(ABC):
    """The local protocol state machine of one node.

    Args:
        node: the wireless node this agent controls.
        rng: the agent's private source of randomness, so runs are
            reproducible regardless of the order agents are polled in (an
            agent that hashes its coins needs none).
    """

    def __init__(self, node: Node, rng: np.random.Generator | None = None):
        self.node = node
        self.rng = rng

    @property
    def node_id(self) -> int:
        """Id of the controlled node."""
        return self.node.id

    @abstractmethod
    def act(self, slot: int) -> Transmission | None:
        """The node's :class:`Transmission` in ``slot``, or ``None`` to listen."""

    @abstractmethod
    def observe(self, slot: int, reception: Reception | None) -> None:
        """The frame the node decoded in ``slot``, or ``None`` if it
        transmitted or decoded nothing."""

    def is_done(self) -> bool:
        """Whether the agent has finished its protocol (heartbeats report it)."""
        return False

    def on_crash(self, slot: int) -> None:
        """The node went down at ``slot``; until it recovers it is neither
        polled nor delivered to.  The default keeps all state."""

    def on_recover(self, slot: int) -> None:
        """The node came back up at ``slot`` and is polled again from it."""
