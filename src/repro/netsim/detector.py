"""Heartbeat-based failure detection.

Every alive node emits an out-of-band heartbeat each ``interval`` slots
carrying its protocol status; the detector suspects a node after
``miss_threshold`` consecutive missed heartbeats and un-suspects it on the
next one that arrives.  Heartbeats ride the control plane: they draw the
plan's heartbeat loss (``FaultPlan.heartbeat_loss_prob``, by default the
message drop probability) but not its partitions - a partition cuts
data-plane messages only, so it never makes a node look dead - and they
consume no data-plane channel slots, so a zero-fault run costs exactly the
lockstep slot count.

The detector's *view* - who is alive, who is done - is what the round driver
and the netsim ``Init`` builder act on, replacing the lockstep simulator's
god's-eye reads of protocol state.  Under zero faults the view coincides with
ground truth at every round boundary; under faults it is exactly as stale or
wrong as the heartbeats let it be.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._types import BoolArray, IntpArray
from ..exceptions import ConfigurationError, NodeCrashedError
from ..obs.runtime import OBS

__all__ = ["HeartbeatDetector"]

#: Heartbeat slots the detector queues before it applies them unasked, so
#: the queue's memory stays bounded between reads.
QUEUE_SLOTS = 64


class HeartbeatDetector:
    """Tracks per-node liveness and last-reported protocol status.

    The per-node state - consecutive misses and the last "done" flag - lives
    in arrays aligned with ``node_ids``; a node is suspected exactly when
    its misses reach ``miss_threshold``.  Heartbeat slots are queued as
    masks over those rows and applied in one vectorized pass before any
    read (:meth:`suspected_ids`, :meth:`alive_view`, :meth:`active_view`,
    :meth:`require_alive`), or once :data:`QUEUE_SLOTS` of them wait.

    Args:
        node_ids: the monitored nodes (distinct).
        interval: slots between expected heartbeats.
        miss_threshold: consecutive misses before a node is suspected.
    """

    __slots__ = (
        "_done",
        "_ids",
        "_interval",
        "_misses",
        "_order",
        "_queue",
        "_sorted_ids",
        "_threshold",
        "node_ids",
    )

    def __init__(
        self,
        node_ids: list[int],
        *,
        interval: int = 1,
        miss_threshold: int = 3,
    ) -> None:
        if interval < 1:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        if miss_threshold < 1:
            raise ConfigurationError(
                f"miss_threshold must be positive, got {miss_threshold}"
            )
        self.node_ids = list(node_ids)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ConfigurationError("detector node ids must be distinct")
        self._interval = interval
        self._threshold = miss_threshold
        self._ids = np.asarray(self.node_ids, dtype=np.int64)
        self._order = np.argsort(self._ids, kind="stable")
        self._sorted_ids = self._ids[self._order]
        count = len(self.node_ids)
        self._misses = np.zeros(count, dtype=np.int64)
        #: last status each node reported (protocol "done" flag).
        self._done = np.zeros(count, dtype=bool)
        #: heartbeat slots not yet applied: (hit, miss, done) row masks.
        self._queue: list[tuple[BoolArray, BoolArray, BoolArray]] = []

    @property
    def interval(self) -> int:
        return self._interval

    def expects_heartbeat(self, slot: int) -> bool:
        """Whether ``slot`` is a heartbeat slot (all nodes share the phase)."""
        return slot % self._interval == 0

    def rows(self, node_ids: Sequence[int] | np.ndarray) -> IntpArray:
        """Monitor rows of ``node_ids``; unknown ids are an error."""
        ids = np.asarray(node_ids, dtype=np.int64).reshape(-1)
        at = np.searchsorted(self._sorted_ids, ids)
        known = at < len(self._sorted_ids)
        known[known] = self._sorted_ids[at[known]] == ids[known]
        if not known.all():
            raise ConfigurationError(
                f"ids not monitored by this detector: {ids[~known][:5].tolist()}"
            )
        return self._order[at]

    def observe(
        self,
        arrived: Sequence[int] | np.ndarray,
        done: Sequence[bool] | np.ndarray,
        missed: Sequence[int] | np.ndarray,
    ) -> None:
        """Queue one heartbeat slot.

        Args:
            arrived: ids whose heartbeat arrived - their misses reset and
                their suspicion clears.
            done: the protocol status each arrived heartbeat reported,
                aligned with ``arrived``.
            missed: ids whose heartbeat was lost or never sent - a node
                reaching ``miss_threshold`` consecutive misses is suspected.
                An id in both lists arrives first, then misses.
        """
        count = len(self.node_ids)
        hit_rows = self.rows(arrived)
        hit = np.zeros(count, dtype=bool)
        hit[hit_rows] = True
        flags = np.zeros(count, dtype=bool)
        flags[hit_rows] = np.asarray(done, dtype=bool)
        miss = np.zeros(count, dtype=bool)
        miss[self.rows(missed)] = True
        self._enqueue(hit, miss, flags)

    def observe_slot(self, hit: BoolArray, done: BoolArray) -> None:
        """Queue one heartbeat slot in which every row either arrived
        (``hit``) or missed; ``done`` is each row's reported status, read
        where ``hit`` holds.  Both are aligned with ``node_ids`` and are
        kept, not copied."""
        self._enqueue(hit, ~hit, done)

    def _enqueue(self, hit: BoolArray, miss: BoolArray, done: BoolArray) -> None:
        if not OBS.enabled:
            self._queue.append((hit, miss, done))
            if len(self._queue) >= QUEUE_SLOTS:
                self._flush()
            return
        # With telemetry on, a slot is applied as it happens, so its counters
        # land then; slots queued while telemetry was off stay uncounted.
        self._flush()
        self._queue.append((hit, miss, done))
        self._flush()
        registry = OBS.registry
        hits = int(np.count_nonzero(hit))
        if hits:
            registry.inc("netsim.heartbeats", hits)
        misses = int(np.count_nonzero(miss))
        if misses:
            registry.inc("netsim.heartbeat_misses", misses)
        # A node turns suspected in the slot where its misses reach the
        # threshold.
        tripped = int(np.count_nonzero(miss & (self._misses == self._threshold)))
        if tripped:
            registry.inc("netsim.suspicions", tripped)

    def _flush(self) -> None:
        """Apply the queued slots in order, in one pass.

        A row's misses after the last slot are the misses from its last
        arrival on (that arrival's own slot included, since a slot's
        arrival comes before its miss), or its earlier misses plus every
        queued miss when nothing arrived.
        """
        queue = self._queue
        if not queue:
            return
        self._queue = []
        hit = np.array([entry[0] for entry in queue])
        miss = np.array([entry[1] for entry in queue])
        slots = len(queue)
        # before[k]: each row's misses in the queued slots before slot k.
        before = np.zeros((slots + 1, hit.shape[1]), dtype=np.int64)
        np.cumsum(miss, axis=0, out=before[1:])
        arrived = hit.any(axis=0)
        last_hit = slots - 1 - np.argmax(hit[::-1], axis=0)
        rows = np.flatnonzero(arrived)
        at = last_hit[rows]
        self._misses += before[slots]
        self._misses[rows] = before[slots, rows] - before[at, rows]
        self._done[rows] = np.array([entry[2] for entry in queue])[at, rows]

    def _suspected(self) -> BoolArray:
        self._flush()
        return self._misses >= self._threshold

    def suspected_ids(self) -> frozenset[int]:
        """Nodes currently suspected crashed."""
        return frozenset(self._ids[self._suspected()].tolist())

    def alive_view(self) -> list[int]:
        """Nodes currently believed alive, in monitor order."""
        return self._ids[~self._suspected()].tolist()

    def active_view(self) -> int:
        """Number of alive-believed nodes whose last status was not done."""
        return int(np.count_nonzero(~(self._suspected() | self._done)))

    def require_alive(self, node_id: int) -> None:
        """Raise :class:`NodeCrashedError` if ``node_id`` is suspected down.

        An id the detector does not monitor is never suspected.
        """
        at = int(np.searchsorted(self._sorted_ids, node_id))
        monitored = at < len(self._sorted_ids) and self._sorted_ids[at] == node_id
        if monitored and self._suspected()[self._order[at]]:
            raise NodeCrashedError(
                f"node {node_id} is suspected crashed "
                f"(missed >= {self._threshold} heartbeats)"
            )
