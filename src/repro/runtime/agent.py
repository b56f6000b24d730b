"""Per-node agents.

Every distributed algorithm in the library is written as a subclass of
:class:`NodeAgent`: an object holding only the node's local state, deciding at
each slot whether to transmit (and what and at which power) or to listen, and
updating its state from whatever the channel delivers.  Agents never see
global state; the simulator is the only component that touches the channel.

A protocol whose per-slot rule is a pure function of each node's own state
can instead be written as one :class:`LockstepProgram`: the state of every
node lives in arrays and the program answers for the whole node set at once.
The simulator steps both kinds alike.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from ..exceptions import ProtocolError
from ..geometry import Node
from ..sinr import Reception, Transmission

__all__ = ["LockstepProgram", "NodeAgent"]


class NodeAgent(ABC):
    """Base class for the local protocol state machine of one node.

    Args:
        node: the wireless node this agent controls.
        rng: the agent's private source of randomness.  Each agent gets its
            own generator so runs are reproducible regardless of the order in
            which the simulator polls agents.
    """

    def __init__(self, node: Node, rng: np.random.Generator):
        self.node = node
        self.rng = rng

    @property
    def node_id(self) -> int:
        """Id of the controlled node."""
        return self.node.id

    @abstractmethod
    def act(self, slot: int) -> Transmission | None:
        """Decide the node's action for ``slot``.

        Returns:
            A :class:`Transmission` to send in this slot, or ``None`` to
            listen.
        """

    def act_batch(self, slot: int) -> tuple[float, Any] | None:
        """Batch-path action for ``slot``: ``(power, message)`` or ``None``.

        The batch slot engine calls this instead of :meth:`act`, collecting
        powers straight into arrays without building :class:`Transmission`
        objects (the sender is this agent's node by construction).  The
        default delegates to :meth:`act`, so existing agents work unchanged;
        protocol agents on the hot path override it and implement :meth:`act`
        as a thin wrapper.  Exactly one of the two is invoked per slot, so
        both may consume randomness and mutate state.
        """
        action = self.act(slot)
        if action is None:
            return None
        if action.sender.id != self.node_id:
            raise ProtocolError(
                f"agent {self.node_id} attempted to transmit as node {action.sender.id}"
            )
        return action.power, action.message

    @abstractmethod
    def observe(self, slot: int, reception: Reception | None) -> None:
        """Deliver the outcome of ``slot`` to the agent.

        Args:
            slot: the global slot index.
            reception: the message decoded by this node in the slot, or
                ``None`` if the node transmitted or decoded nothing.
        """

    def is_done(self) -> bool:
        """Whether the agent has finished its protocol (used for early exit)."""
        return False

    def on_crash(self, slot: int) -> None:
        """Notify the agent that its node crashed at ``slot``.

        Called by fault-injecting runtimes (``repro.netsim``) when the fault
        plan takes the node down.  While crashed the agent is neither polled
        nor delivered to.  The default keeps all state (crash-recover
        semantics); subclasses may drop volatile in-flight state here.
        """

    def on_recover(self, slot: int) -> None:
        """Notify the agent that its node came back up at ``slot``.

        The agent resumes being polled from this slot on.  Protocol agents
        whose per-slot state is only meaningful within a slot pair (e.g. a
        pending broadcast awaiting its ack phase) should discard it here -
        the context it referred to has passed while the node was down.
        """

    def summary(self) -> dict[str, Any]:
        """Small diagnostic dictionary (protocol-specific)."""
        return {"node_id": self.node_id, "done": self.is_done()}


class LockstepProgram(ABC):
    """The protocol of a fixed node set, run as array operations.

    Node ``i`` is position ``i`` of :attr:`nodes`.  In every slot the
    simulator asks the program which positions transmit (and at which
    powers), resolves the slot through the SINR channel, and hands back the
    positions that decoded together with the position each one decoded.
    Messages are implicit: a program knows what each of its transmitters
    sent.
    """

    #: the simulated nodes, in position order.
    nodes: Sequence[Node]

    @abstractmethod
    def transmit(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions transmitting in ``slot`` (distinct) and their powers."""

    @abstractmethod
    def receive(self, slot: int, listeners: np.ndarray, senders: np.ndarray) -> None:
        """``listeners[k]`` decoded ``senders[k]`` in ``slot`` (positions)."""
