"""Directed communication links.

A link is a directed sender-to-receiver pair of nodes (Section 3 of the
paper).  The *dual* of a link reverses its direction; bi-trees are built from
link/dual pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Node

__all__ = ["Link"]


@dataclass(frozen=True, order=True)
class Link:
    """A directed wireless link from ``sender`` to ``receiver``."""

    sender: Node
    receiver: Node

    def __post_init__(self) -> None:
        if self.sender.id == self.receiver.id:
            raise ValueError(f"link endpoints must be distinct nodes, got id {self.sender.id}")

    @property
    def length(self) -> float:
        """Euclidean length of the link, ``d(sender, receiver)``."""
        return self.sender.distance_to(self.receiver)

    @property
    def dual(self) -> "Link":
        """The link in the opposite direction (receiver -> sender)."""
        return Link(sender=self.receiver, receiver=self.sender)

    @property
    def endpoints(self) -> tuple[Node, Node]:
        """The (sender, receiver) node pair."""
        return (self.sender, self.receiver)

    @property
    def endpoint_ids(self) -> tuple[int, int]:
        """The (sender id, receiver id) pair."""
        return (self.sender.id, self.receiver.id)

    def shares_node_with(self, other: "Link") -> bool:
        """Whether this link and ``other`` have a node in common."""
        ids = {self.sender.id, self.receiver.id}
        return other.sender.id in ids or other.receiver.id in ids

    def is_dual_of(self, other: "Link") -> bool:
        """Whether this link is exactly the reverse of ``other``."""
        return self.sender.id == other.receiver.id and self.receiver.id == other.sender.id

    def __hash__(self) -> int:
        # Equal links have equal endpoint ids: hashing the id pair skips
        # hashing two nodes and their points.
        return hash((self.sender.id, self.receiver.id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.sender.id}->{self.receiver.id}, len={self.length:.3f})"
