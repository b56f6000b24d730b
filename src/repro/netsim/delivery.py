"""Reliable-delivery bookkeeping protocols can opt into.

The paper's protocols are fire-and-forget: a broadcast is sent once and the
protocol's own redundancy (repeated slot pairs) absorbs loss.  This module
adds the other mode a lossy transport makes necessary: **reliable unicast**
with acknowledgments, per-message retry budgets, timeouts and exponential
backoff.  A :class:`ReliableOutbox` tracks each outstanding message; its
owner retransmits whatever :meth:`ReliableOutbox.due` returns and the outbox
raises :class:`~repro.exceptions.DeliveryTimeout` when a message exhausts
its attempts.  Leader election tracks each candidate's claims in one;
retries are real transmissions, so they inflate the round-complexity
metrics - which is exactly the overhead the loss-resilience experiments
measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..exceptions import ConfigurationError, DeliveryTimeout
from ..obs.runtime import OBS

__all__ = ["OutstandingSend", "ReliableOutbox", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and pacing of reliable sends.

    Attempt ``k`` (0-based) waits ``timeout_slots * backoff**k`` slots for an
    ack before retransmitting; after ``max_attempts`` unacked attempts the
    send times out.

    Attributes:
        max_attempts: total transmissions allowed per message (>= 1).
        timeout_slots: slots to wait for an ack after the first attempt.
        backoff: multiplicative backoff on the timeout per retry (finite,
            >= 1).
    """

    max_attempts: int = 5
    timeout_slots: int = 4
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.timeout_slots < 1:
            raise ConfigurationError(
                f"timeout_slots must be positive, got {self.timeout_slots}"
            )
        if not (math.isfinite(self.backoff) and self.backoff >= 1.0):
            raise ConfigurationError(f"backoff must be finite and >= 1, got {self.backoff}")

    def deadline_after(self, slot: int, attempt: int) -> int:
        """Slot at which attempt ``attempt`` (0-based) times out."""
        return slot + max(1, int(self.timeout_slots * self.backoff**attempt))


@dataclass
class OutstandingSend:
    """One reliable message awaiting its acknowledgment."""

    key: int
    payload: Any
    dst_id: int
    attempts: int
    deadline: int


class ReliableOutbox:
    """Per-sender bookkeeping of unacked reliable sends.

    Args:
        policy: retry budget and pacing.

    The owner calls :meth:`post` when it first wants a message delivered,
    retransmits whatever :meth:`due` hands back, and calls :meth:`ack` when
    the matching acknowledgment arrives.  ``retries`` counts retransmissions
    only (attempts beyond each message's first), the quantity the send-budget
    metrics report.
    """

    __slots__ = ("_outstanding", "policy", "retries", "timeouts")

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self._outstanding: dict[int, OutstandingSend] = {}
        self.retries = 0
        #: keys that exhausted their budget (populated only in lenient mode).
        self.timeouts: list[int] = []

    def __len__(self) -> int:
        return len(self._outstanding)

    def post(self, key: int, payload: Any, dst_id: int, slot: int) -> Any:
        """Register a new reliable send; returns the payload to transmit now."""
        if key in self._outstanding:
            raise ConfigurationError(f"message key {key} is already outstanding")
        self._outstanding[key] = OutstandingSend(
            key=key,
            payload=payload,
            dst_id=dst_id,
            attempts=1,
            deadline=self.policy.deadline_after(slot, 0),
        )
        if OBS.enabled:
            OBS.registry.inc("netsim.reliable_posts")
        return payload

    def ack(self, key: int) -> bool:
        """Mark ``key`` acknowledged; returns whether it was outstanding."""
        return self._outstanding.pop(key, None) is not None

    def due(self, slot: int, *, strict: bool = True) -> list[OutstandingSend]:
        """Messages whose ack deadline passed, ready for retransmission.

        Each returned message has its attempt count bumped and a fresh
        backoff deadline.  A message with no attempts left is removed and
        either raises :class:`DeliveryTimeout` (``strict=True``) or is
        recorded in :attr:`timeouts`.
        """
        expired = [send for key, send in sorted(self._outstanding.items()) if slot >= send.deadline]
        ready: list[OutstandingSend] = []
        for send in expired:
            if send.attempts >= self.policy.max_attempts:
                del self._outstanding[send.key]
                if OBS.enabled:
                    OBS.registry.inc("netsim.timeouts")
                if strict:
                    raise DeliveryTimeout(
                        f"message {send.key} to node {send.dst_id} unacked after "
                        f"{send.attempts} attempts"
                    )
                self.timeouts.append(send.key)
                continue
            send.attempts += 1
            send.deadline = self.policy.deadline_after(slot, send.attempts - 1)
            self.retries += 1
            if OBS.enabled:
                OBS.registry.inc("netsim.retries")
            ready.append(send)
        return ready
