"""The protocol interface of the slot engines.

Every distributed algorithm the engines run is written as one
:class:`LockstepProgram`: the state of every node lives in arrays, and in
each slot the program answers for the whole node set at once - which
positions transmit, at which powers - and then updates its state from the
positions that decoded.  Each node's rule still reads only that node's
row, the round-by-round local-algorithm model the paper's protocols fit.
The lockstep :class:`~repro.runtime.simulator.Simulator` steps a program,
and so does the message-passing runtime, which also reports crashes and
delayed frames to it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..geometry import Node

__all__ = ["LockstepProgram"]


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
        """Positions transmitting in ``slot`` (distinct) and their powers.

        The engine keeps the position array for its trace, so the program
        must not write it afterwards (nor the arrays :meth:`receive` gets).
        """

    @abstractmethod
    def receive(self, slot: int, listeners: np.ndarray, senders: np.ndarray) -> None:
        """``listeners[k]`` decoded ``senders[k]`` in ``slot`` (positions)."""

    # The message-passing runtime (``repro.netsim``) also calls the hooks
    # below; the lockstep simulator never does.

    def done(self) -> np.ndarray:
        """Per position, whether the node's protocol has finished (heartbeats
        report it)."""
        return np.zeros(len(self.nodes), dtype=bool)

    def on_crash(self, positions: np.ndarray, slot: int) -> None:
        """``positions`` went down at ``slot``.  Until they recover they are
        neither asked to transmit nor delivered to; a program should draw no
        randomness for them."""

    def on_recover(self, positions: np.ndarray, slot: int) -> None:
        """``positions`` came back up at ``slot``."""

    # A program that runs over a transport with latency defines these two.

    def message(self, slot: int, senders: np.ndarray) -> np.ndarray:
        """What each of ``senders`` transmitted in ``slot``, one int each.

        Asked for the frames the transport delays, which
        :meth:`receive_late` gets back when they mature.
        """
        raise NotImplementedError(f"{type(self).__name__} does not take delayed frames")

    def receive_late(
        self, slot: int, listeners: np.ndarray, senders: np.ndarray, messages: np.ndarray
    ) -> None:
        """Delayed frames maturing in ``slot``: ``listeners[k]`` receives
        ``messages[k]``, sent by ``senders[k]`` in an earlier slot."""
        raise NotImplementedError(f"{type(self).__name__} does not take delayed frames")
