"""Composable fault models drawn from stateless counter-hashed randomness.

A :class:`FaultPlan` bundles every way the transport can misbehave - per
message Bernoulli drops, seeded latency distributions, node crash/recover
windows and link partitions - behind pure functions of ``(seed, sender,
receiver, slot)``.  All draws go through the same SplitMix64 counter hash the
fading models and protocols use (see :mod:`repro.coins`), never through a shared
RNG stream, so a fault trace is bit-reproducible regardless of query order,
polling order, node subsets or worker count: the drop decision for message
``(u, v, t)`` is the same whether it is the first or the millionth question
asked of the plan.

Crash schedules can be written explicitly, sampled from a counter hash
(:meth:`CrashSchedule.sample`), or derived from the dynamics subsystem's
seeded :class:`~repro.dynamics.churn.ChurnProcess`
(:meth:`CrashSchedule.from_churn`), which maps each churn epoch's failure
draw onto a crash window in slot time.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .._types import BoolArray, IntpArray
from ..coins import _hash_int, _hash_u64, _mix, _uniform_cut, _uniform_open, _word
from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dynamics.churn import ChurnProcess
    from ..geometry import Node

__all__ = [
    "CrashSchedule",
    "CrashWindow",
    "FaultPlan",
    "FaultRecord",
    "FaultTrace",
    "LatencyModel",
    "Partition",
]

# Domain-separation tags: one per fault stream, so identical seeds never
# correlate drops with delays, crash draws or heartbeat loss.
_DROP_STREAM = 0x44524F50
_DELAY_STREAM = 0x44454C41
_CRASH_STREAM = 0x43524153
_HEARTBEAT_STREAM = 0x48454152


@dataclass(frozen=True)
class LatencyModel:
    """Seeded per-message delivery delay, in whole slots.

    With probability ``delay_prob`` a message is late; its extra delay is a
    geometric draw with mean ``mean_slots`` (conditioned on being >= 1),
    capped at ``max_slots``.  Both draws are counter hashes of
    ``(seed, sender, receiver, slot)``, so the delay of a given message is a
    pure function of its identity.

    Attributes:
        delay_prob: probability that a delivered message is delayed at all.
        mean_slots: mean of the geometric delay, given that it is delayed.
        max_slots: hard cap on the per-message delay.
    """

    delay_prob: float = 0.0
    mean_slots: float = 1.0
    max_slots: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.delay_prob <= 1.0:
            raise ConfigurationError(f"delay_prob must be in [0, 1], got {self.delay_prob}")
        if not (math.isfinite(self.mean_slots) and self.mean_slots >= 1.0):
            raise ConfigurationError(
                f"mean_slots must be finite and >= 1, got {self.mean_slots}"
            )
        if self.max_slots < 1:
            raise ConfigurationError(f"max_slots must be positive, got {self.max_slots}")

    def delays(
        self, seed: int, src_ids: np.ndarray | int, dst_ids: np.ndarray, slot: int
    ) -> IntpArray:
        """Delivery delays of ``src -> dst`` messages sent at ``slot``.

        ``src_ids`` and ``dst_ids`` broadcast against each other: one sender
        against its receivers, or aligned pair arrays of a whole slot.
        """
        src = np.asarray(src_ids, dtype=np.int64)
        dst = np.asarray(dst_ids, dtype=np.int64)
        shape = np.broadcast_shapes(src.shape, dst.shape)
        if self.delay_prob <= 0.0:
            return np.zeros(shape, dtype=np.intp)
        u_late = _uniform_open(_hash_u64(_DELAY_STREAM, seed, src, dst, slot, 1))
        u_size = _uniform_open(_hash_u64(_DELAY_STREAM, seed, src, dst, slot, 2))
        # Geometric with the requested mean: ceil(log(u) / log(1 - 1/mean)).
        p = 1.0 / self.mean_slots
        if p >= 1.0:
            size = np.ones(shape, dtype=np.intp)
        else:
            size = np.ceil(np.log(u_size) / np.log1p(-p)).astype(np.intp)
        size = np.clip(size, 1, self.max_slots)
        return np.where(u_late < self.delay_prob, size, 0).astype(np.intp)


@dataclass(frozen=True)
class CrashWindow:
    """One node-down interval: crashed in ``[start_slot, end_slot)``.

    ``end_slot=None`` means crash-stop: the node never comes back.
    """

    node_id: int
    start_slot: int
    end_slot: int | None = None

    def __post_init__(self) -> None:
        if self.start_slot < 0:
            raise ConfigurationError(f"start_slot must be non-negative, got {self.start_slot}")
        if self.end_slot is not None and self.end_slot <= self.start_slot:
            raise ConfigurationError(
                f"end_slot {self.end_slot} must exceed start_slot {self.start_slot}"
            )

    def covers(self, slot: int) -> bool:
        if slot < self.start_slot:
            return False
        return self.end_slot is None or slot < self.end_slot


@dataclass(frozen=True)
class CrashSchedule:
    """A set of crash windows, queried per slot.

    The down set only changes at a window's start or end slot, so the
    schedule tables those change slots and the down set from each one on
    the first time it is asked: a query is a bisection, and every slot
    between two changes gets the same frozenset object back.

    Attributes:
        windows: the node-down intervals; one node may have several.
    """

    windows: tuple[CrashWindow, ...] = ()

    @cached_property
    def _timeline(self) -> tuple[list[int], list[frozenset[int]]]:
        """``(change slots, down sets)``: ``down[i]`` holds from
        ``changes[i - 1]`` up to ``changes[i]``, and ``down[0]`` before
        the first change."""
        changes = sorted(
            {w.start_slot for w in self.windows}
            | {w.end_slot for w in self.windows if w.end_slot is not None}
        )
        down = [frozenset()] + [
            frozenset(w.node_id for w in self.windows if w.covers(slot)) for slot in changes
        ]
        return changes, down

    def crashed_ids(self, slot: int) -> frozenset[int]:
        """Ids of every node down at ``slot``."""
        changes, down = self._timeline
        return down[bisect_right(changes, slot)]

    @property
    def node_ids(self) -> frozenset[int]:
        """Every node that crashes at least once."""
        return frozenset(w.node_id for w in self.windows)

    @classmethod
    def sample(
        cls,
        node_ids: Sequence[int],
        count: int,
        horizon: int,
        *,
        seed: int = 0,
        recover_after: int | None = None,
        min_slot: int = 0,
    ) -> "CrashSchedule":
        """Draw ``count`` distinct victims and crash slots from a counter hash.

        The draw is a pure function of ``(seed, node ids, horizon)``: victims
        are the ``count`` nodes with the smallest hash rank, each crashing at
        a hash-derived slot in ``[min_slot, horizon)``.  No RNG object is
        involved, so the schedule is identical across processes and call
        orders.

        Args:
            node_ids: candidate victims.
            count: how many nodes crash.
            horizon: exclusive upper bound on crash slots.
            seed: stream seed.
            recover_after: slots until recovery (``None`` = crash-stop).
            min_slot: inclusive lower bound on crash slots.
        """
        ids = np.asarray(sorted(int(i) for i in node_ids), dtype=np.int64)
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count > len(ids):
            raise ConfigurationError(f"cannot crash {count} of {len(ids)} nodes")
        if horizon <= min_slot:
            raise ConfigurationError(f"horizon {horizon} must exceed min_slot {min_slot}")
        rank = _hash_u64(_CRASH_STREAM, seed, ids, 1)
        victims = ids[np.argsort(rank, kind="stable")][:count]
        span = horizon - min_slot
        slots = min_slot + (
            _hash_u64(_CRASH_STREAM, seed, victims, 2) % np.uint64(span)
        ).astype(np.int64)
        windows = tuple(
            CrashWindow(
                node_id=int(v),
                start_slot=int(s),
                end_slot=None if recover_after is None else int(s) + int(recover_after),
            )
            for v, s in zip(victims, slots)
        )
        return cls(windows=windows)

    @classmethod
    def from_churn(
        cls,
        churn: "ChurnProcess",
        nodes: Sequence["Node"],
        *,
        epochs: int,
        slots_per_epoch: int,
        recover_after: int | None = None,
    ) -> "CrashSchedule":
        """Map a seeded churn process onto crash windows in slot time.

        Epoch ``e``'s failure draw (a pure function of ``(churn.seed, e)``)
        becomes a set of crashes at slot ``e * slots_per_epoch``.  Arrivals
        in the churn stream are ignored - the message runtime models node
        loss, not deployment.  Nodes already scheduled to crash are excluded
        from later epochs' alive sets, mirroring the dynamics driver.
        """
        if epochs < 0:
            raise ConfigurationError(f"epochs must be non-negative, got {epochs}")
        if slots_per_epoch < 1:
            raise ConfigurationError(
                f"slots_per_epoch must be positive, got {slots_per_epoch}"
            )
        alive = list(nodes)
        next_id = max((node.id for node in alive), default=0) + 1
        windows: list[CrashWindow] = []
        for epoch in range(epochs):
            event = churn.events_for(epoch, alive, next_id)
            start = epoch * slots_per_epoch
            for node_id in event.failed:
                windows.append(
                    CrashWindow(
                        node_id=int(node_id),
                        start_slot=start,
                        end_slot=None if recover_after is None else start + recover_after,
                    )
                )
            failed = set(event.failed)
            alive = [node for node in alive if node.id not in failed]
        return cls(windows=tuple(windows))


@dataclass(frozen=True)
class Partition:
    """A link partition: messages crossing the cut are dropped.

    The cut separates ``left`` from everyone else during
    ``[start_slot, end_slot)`` (``end_slot=None`` = forever).
    """

    left: frozenset[int]
    start_slot: int = 0
    end_slot: int | None = None

    @cached_property
    def _left_ids(self) -> np.ndarray:
        """The ``left`` ids, sorted once per partition."""
        return np.array(sorted(self.left), dtype=np.int64)

    def active(self, slot: int) -> bool:
        if slot < self.start_slot:
            return False
        return self.end_slot is None or slot < self.end_slot

    def _on_left(self, ids: np.ndarray) -> BoolArray:
        cut = self._left_ids
        if not cut.size:
            return np.zeros(ids.shape, dtype=bool)
        return cut[np.minimum(cut.searchsorted(ids), cut.size - 1)] == ids

    def severs(self, src_ids: np.ndarray | int, dst_ids: np.ndarray, slot: int) -> BoolArray:
        """Which broadcast ``src -> dst`` messages the cut severs at ``slot``."""
        src = np.asarray(src_ids, dtype=np.int64)
        dst = np.asarray(dst_ids, dtype=np.int64)
        if not self.active(slot):
            return np.zeros(np.broadcast_shapes(src.shape, dst.shape), dtype=bool)
        return self._on_left(src) != self._on_left(dst)


@dataclass(frozen=True)
class FaultPlan:
    """The complete fault configuration of one run.

    Every decision the plan makes is a counter hash of the message identity,
    so two plans with equal fields behave identically everywhere.

    Attributes:
        seed: stream seed for drops, delays and heartbeat loss.
        drop_prob: per-message Bernoulli loss probability.
        latency: per-message delay model (``None`` = always immediate).
        crashes: node crash/recover windows.
        partitions: link partitions.
        heartbeat_drop_prob: loss probability of the out-of-band heartbeats
            feeding the failure detector (defaults to ``drop_prob``).
    """

    seed: int = 0
    drop_prob: float = 0.0
    latency: LatencyModel | None = None
    crashes: CrashSchedule = field(default_factory=CrashSchedule)
    partitions: tuple[Partition, ...] = ()
    heartbeat_drop_prob: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ConfigurationError(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        if self.heartbeat_drop_prob is not None and not 0.0 <= self.heartbeat_drop_prob <= 1.0:
            raise ConfigurationError(
                f"heartbeat_drop_prob must be in [0, 1], got {self.heartbeat_drop_prob}"
            )

    @property
    def faultless(self) -> bool:
        """Whether the plan can never perturb a run."""
        return (
            self.drop_prob == 0.0
            and (self.latency is None or self.latency.delay_prob == 0.0)
            and not self.crashes.windows
            and not self.partitions
            and not self.heartbeat_drop_prob
        )

    def without_crashes(self) -> "FaultPlan":
        """The same loss/latency environment with no scheduled crashes."""
        return FaultPlan(
            seed=self.seed,
            drop_prob=self.drop_prob,
            latency=self.latency,
            partitions=self.partitions,
            heartbeat_drop_prob=self.heartbeat_drop_prob,
        )

    # -- message-level draws ------------------------------------------------
    #
    # Every draw is elementwise in its id arrays, which broadcast against
    # each other: asking about one message or a whole slot's worth in one
    # call yields the same uint64 hash per message.

    @cached_property
    def _drop_keys(self) -> "_IdKeys":
        return _IdKeys(_DROP_STREAM, self.seed)

    @cached_property
    def _heartbeat_keys(self) -> "_IdKeys":
        return _IdKeys(_HEARTBEAT_STREAM, self.seed)

    @cached_property
    def _drop_cut(self) -> np.uint64:
        """The hash bound below which a message is dropped."""
        return _uniform_cut(self.drop_prob)

    def dropped(self, src_ids: np.ndarray | int, dst_ids: np.ndarray, slot: int) -> BoolArray:
        """Drop decisions of ``src -> dst`` messages sent at ``slot``.

        Aligned one-dimensional id arrays (a whole slot's deliveries) take
        the direct path; other shapes are broadcast and flattened first.
        """
        src = np.asarray(src_ids, dtype=np.int64)
        dst = np.asarray(dst_ids, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            shape = np.broadcast_shapes(src.shape, dst.shape)
            flat = [np.broadcast_to(ids, shape).reshape(-1) for ids in (src, dst)]
            return self.dropped(flat[0], flat[1], slot).reshape(shape)
        if self.drop_prob > 0.0:
            # _hash_u64(_DROP_STREAM, seed, src, dst, slot), continued from
            # the senders' keys.
            h = _mix(self._drop_keys(src) ^ dst.view(np.uint64))
            out = _mix(h ^ _word(slot)) < self._drop_cut
        else:
            out = np.zeros(src.shape, dtype=bool)
        for partition in self.partitions:
            out |= partition.severs(src, dst, slot)
        return out

    @property
    def heartbeat_loss_prob(self) -> float:
        """Probability that a heartbeat is lost."""
        return self.drop_prob if self.heartbeat_drop_prob is None else self.heartbeat_drop_prob

    def heartbeat_losses(self, node_ids: np.ndarray, first_slot: int, slots: int) -> BoolArray:
        """Loss table of the one-dimensional ``node_ids``' heartbeats over
        ``slots`` slots, shaped ``(slots, len(node_ids))``.

        Row ``k`` says which heartbeats at slot ``first_slot + k`` are lost;
        it is ``_uniform_open(_hash_u64(_HEARTBEAT_STREAM, seed, id, slot))``
        below :attr:`heartbeat_loss_prob`, hashed for every row at once.
        Heartbeats draw loss only: partitions cut data-plane messages, not
        the detector's control plane.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        prob = self.heartbeat_loss_prob
        if prob <= 0.0:
            return np.zeros((slots, ids.size), dtype=bool)
        words = np.arange(first_slot, first_slot + slots, dtype=np.int64).view(np.uint64)
        return _mix(words[:, None] ^ self._heartbeat_keys(ids)[None, :]) < _uniform_cut(prob)


class _IdKeys:
    """One fault stream's per-id hash, ``_hash_u64(stream, seed, id)``, read
    from a table: a draw continues from its node's key, so the key is
    hashed once per plan, not once per message.

    The table holds ids ``0 .. size - 1`` at their own positions.  An id
    past its end doubles it until it fits, up to :data:`_MAX_TABLE_IDS`;
    an id beyond that, or a negative one (read as a uint64, it is larger
    than any table), is hashed directly, to the same key.
    """

    __slots__ = ("_keys", "_lead")

    def __init__(self, stream: int, seed: int) -> None:
        self._lead = np.uint64(_hash_int(stream, seed))
        self._keys = np.empty(0, dtype=np.uint64)

    def __call__(self, ids: np.ndarray) -> np.ndarray:
        """The keys of the one-dimensional int64 ``ids``, in a fresh array."""
        if ids.size:
            reach = int(ids.view(np.uint64).max()) + 1
            if reach > self._keys.size:
                if reach > _MAX_TABLE_IDS:
                    return _mix(self._lead ^ ids.view(np.uint64))
                size = max(1 << (reach - 1).bit_length(), 2 * self._keys.size)
                self._keys = _mix(self._lead ^ np.arange(size, dtype=np.uint64))
        return self._keys[ids]


#: Most ids an :class:`_IdKeys` table holds: 1 MiB of keys.
_MAX_TABLE_IDS = 1 << 17


class FaultTrace:
    """Recorder of every fault the transport actually injected.

    The trace lists events in slot order with deterministic tie-breaks, so
    two runs of the same plan produce byte-identical traces; :meth:`digest`
    condenses that into a fingerprint the property tests compare across
    scheduling orders and worker counts.
    """

    __slots__ = (
        "_heartbeat_chunks",
        "_heartbeat_count",
        "_heartbeat_losses",
        "crashes",
        "delayed",
        "dropped",
        "recoveries",
    )

    def __init__(self) -> None:
        #: (slot, src_id, dst_id) of every dropped delivery.
        self.dropped: list[tuple[int, int, int]] = []
        #: (slot, src_id, dst_id, delay) of every delayed delivery.
        self.delayed: list[tuple[int, int, int, int]] = []
        #: (slot, node_id) of every crash transition.
        self.crashes: list[tuple[int, int]] = []
        #: (slot, node_id) of every recovery transition.
        self.recoveries: list[tuple[int, int]] = []
        self._heartbeat_losses: list[tuple[int, int]] = []
        #: recorded heartbeat losses not yet listed, as aligned id arrays.
        self._heartbeat_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._heartbeat_count = 0

    @property
    def heartbeat_losses(self) -> list[tuple[int, int]]:
        """(hashed slot, node_id) of every lost out-of-band heartbeat.

        The *hashed* slot (protocol slot + transport offset) is recorded so
        a completion patch that continues the streams at a fresh offset is
        distinguishable from a replay of the main run's decisions.  Losses
        are kept as arrays until this list is first read.
        """
        if self._heartbeat_chunks:
            for slots, node_ids in self._heartbeat_chunks:
                self._heartbeat_losses.extend(zip(slots.tolist(), node_ids.tolist()))
            self._heartbeat_chunks = []
        return self._heartbeat_losses

    def record_crash(self, slot: int, node_id: int) -> None:
        self.crashes.append((slot, node_id))

    def record_recovery(self, slot: int, node_id: int) -> None:
        self.recoveries.append((slot, node_id))

    def record_heartbeat_losses(self, hashed_slots: np.ndarray, node_ids: np.ndarray) -> None:
        """Append lost heartbeats: aligned int arrays of hashed slots and
        node ids, in the order they happened.  The arrays are kept, not
        copied."""
        self._heartbeat_chunks.append((hashed_slots, node_ids))
        self._heartbeat_count += len(node_ids)

    def summary(self) -> dict[str, int]:
        return {
            "dropped": len(self.dropped),
            "delayed": len(self.delayed),
            "crashes": len(self.crashes),
            "recoveries": len(self.recoveries),
            "heartbeat_losses": self._heartbeat_count,
        }

    def __eq__(self, other: object) -> bool:
        """Traces are equal when they record the same fault history, in
        any order: when their digests agree."""
        if not isinstance(other, FaultTrace):
            return NotImplemented
        return self.digest() == other.digest()

    __hash__ = None  # type: ignore[assignment]  # mutable

    def digest(self) -> str:
        """Order-normalized fingerprint of the whole fault history."""
        payload = repr(
            (
                sorted(self.dropped),
                sorted(self.delayed),
                sorted(self.crashes),
                sorted(self.recoveries),
                sorted(self.heartbeat_losses),
            )
        ).encode("utf-8")
        return hashlib.sha1(payload).hexdigest()


class FaultRecord:
    """Mixin of the netsim result types: the run's :class:`FaultTrace` and
    its digest, computed on first read.

    A result holds its ``fault_trace`` field (``None`` on a perfect
    transport); nothing appends to the trace once the run has returned.
    """

    fault_trace: FaultTrace | None

    @cached_property
    def fault_digest(self) -> str | None:
        """Order-normalized fingerprint of the fault history
        (:meth:`FaultTrace.digest`), ``None`` on a perfect transport."""
        return None if self.fault_trace is None else self.fault_trace.digest()
