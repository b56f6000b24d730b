"""Heartbeat-based failure detection.

Every alive node emits an out-of-band heartbeat each ``interval`` slots
carrying its protocol status; the detector suspects a node after
``miss_threshold`` consecutive missed heartbeats and un-suspects it on the
next one that arrives.  Heartbeats ride the control plane: they share the
transport's loss and partitions (a partitioned node looks dead, which is the
point of a failure detector) but consume no data-plane channel slots, so a
zero-fault run costs exactly the lockstep slot count.

The detector's *view* - who is alive, who is done - is what the round driver
and the netsim ``Init`` builder act on, replacing the lockstep simulator's
god's-eye reads of protocol state.  Under zero faults the view coincides with
ground truth at every round boundary; under faults it is exactly as stale or
wrong as the heartbeats let it be.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._types import IntpArray
from ..exceptions import ConfigurationError, NodeCrashedError
from ..obs.runtime import OBS

__all__ = ["HeartbeatDetector"]


class HeartbeatDetector:
    """Tracks per-node liveness and last-reported protocol status.

    The per-node state - consecutive misses, suspicion, last "done" flag -
    lives in arrays aligned with ``node_ids``, and one :meth:`observe` call
    applies a whole heartbeat slot.

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
        "_sorted_ids",
        "_suspected",
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
        self._suspected = np.zeros(count, dtype=bool)
        #: last status each node reported (protocol "done" flag).
        self._done = np.zeros(count, dtype=bool)

    @property
    def interval(self) -> int:
        return self._interval

    def expects_heartbeat(self, slot: int) -> bool:
        """Whether ``slot`` is a heartbeat slot (all nodes share the phase)."""
        return slot % self._interval == 0

    def rows(self, node_ids: Sequence[int] | np.ndarray) -> IntpArray:
        """Monitor rows of ``node_ids``, for :meth:`observe_rows`; unknown
        ids are an error."""
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
        """Apply one heartbeat slot.

        Args:
            arrived: ids whose heartbeat arrived - their misses reset and
                their suspicion clears.
            done: the protocol status each arrived heartbeat reported,
                aligned with ``arrived``.
            missed: ids whose heartbeat was lost or never sent - a node
                reaching ``miss_threshold`` consecutive misses is suspected.
        """
        self.observe_rows(self.rows(arrived), done, self.rows(missed))

    def observe_rows(
        self, hit: IntpArray, done: Sequence[bool] | np.ndarray, lost: IntpArray
    ) -> None:
        """:meth:`observe` with the ids already mapped by :meth:`rows`."""
        self._misses[hit] = 0
        self._suspected[hit] = False
        self._done[hit] = np.asarray(done, dtype=bool)
        self._misses[lost] += 1
        tripped = lost[self._misses[lost] >= self._threshold]
        if OBS.enabled:
            registry = OBS.registry
            if len(hit):
                registry.inc("netsim.heartbeats", len(hit))
            if len(lost):
                registry.inc("netsim.heartbeat_misses", len(lost))
            fresh = int(np.count_nonzero(~self._suspected[tripped]))
            if fresh:
                registry.inc("netsim.suspicions", fresh)
        self._suspected[tripped] = True

    def suspected_ids(self) -> frozenset[int]:
        """Nodes currently suspected crashed."""
        return frozenset(self._ids[self._suspected].tolist())

    def alive_view(self) -> list[int]:
        """Nodes currently believed alive, in monitor order."""
        return self._ids[~self._suspected].tolist()

    def active_view(self) -> int:
        """Number of alive-believed nodes whose last status was not done."""
        return int(np.count_nonzero(~(self._suspected | self._done)))

    def require_alive(self, node_id: int) -> None:
        """Raise :class:`NodeCrashedError` if ``node_id`` is suspected down.

        An id the detector does not monitor is never suspected.
        """
        at = int(np.searchsorted(self._sorted_ids, node_id))
        monitored = at < len(self._sorted_ids) and self._sorted_ids[at] == node_id
        if monitored and self._suspected[self._order[at]]:
            raise NodeCrashedError(
                f"node {node_id} is suspected crashed "
                f"(missed >= {self._threshold} heartbeats)"
            )
