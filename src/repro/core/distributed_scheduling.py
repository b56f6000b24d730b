"""Distributed contention-based scheduling (the Kesselheim-Vocking substrate).

Theorem 3 reschedules the initial tree with mean power using the distributed
scheduling algorithm of [15] (shown O(log n)-approximate in [9]).  The paper
treats that algorithm as a black box: give every link an oblivious power and
let the links contend on the channel until each has found a slot.

This module implements that black box as a slotted contention process, run on
the same SINR channel as everything else:

* time is divided into *frames* of two slots (data + acknowledgment);
* every unscheduled link transmits in a frame with its current probability,
  using its assigned power (a sender with several heads sends on the one
  with the smallest tie hash); the receiver answers successful data with an
  acknowledgment at the same power;
* a link whose data **and** acknowledgment both succeed adopts the current
  frame index as its slot and stops contending; the others adjust their
  transmission probability multiplicatively (down on a failed attempt, up
  slowly while idle), the standard decay used by distributed contention
  resolution in the SINR model.

The resulting slot groups are feasible by construction: the links that
succeeded together in a frame succeeded in the presence of *more* interference
than the final schedule will ever have.

A link's coins in frame ``f`` are the counter hashes of its ``(sender id,
receiver id, f)`` under the call's seed, one stream for the attempt and one
for the tie (:mod:`repro.coins`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..coins import _hash_u64, _mix, _uniform_open, seed_word
from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ConvergenceError
from ..links import Link, LinkSet
from ..sinr import CachedChannel, PowerAssignment, SINRParameters
from ..sinr.channel import ensure_positive_powers
from ..state import NetworkState
from .schedule import Schedule

__all__ = ["DistributedScheduler", "DistributedScheduleResult"]

#: Stream tags of a link's attempt coin and of its tie hash.
_ATTEMPT_STREAM = 0x53434844
_TIE_STREAM = 0x54494553


@dataclass(frozen=True)
class DistributedScheduleResult:
    """Outcome of a distributed scheduling run.

    Attributes:
        schedule: the produced schedule (slot = frame in which a link succeeded).
        frames_elapsed: number of contention frames until the last link was
            scheduled - the algorithm's running time.
        slots_elapsed: channel slots consumed (two per frame).
        power: the power assignment the links used.
    """

    schedule: Schedule
    frames_elapsed: int
    slots_elapsed: int
    power: PowerAssignment


class DistributedScheduler:
    """Schedules a link set by contention on the shared SINR channel.

    Args:
        params: physical-model parameters.
        constants: protocol constants (base transmission probability).
        decay: multiplicative decrease applied to a link's probability after a
            failed attempt.
        recovery: multiplicative increase applied while a link stays silent,
            capped at the base probability.
        min_probability: probability floor preventing starvation.
    """

    def __init__(
        self,
        params: SINRParameters,
        constants: AlgorithmConstants = DEFAULT_CONSTANTS,
        *,
        decay: float = 0.9,
        recovery: float = 1.02,
        min_probability: float = 0.01,
    ):
        if not (0.0 < decay <= 1.0):
            raise ValueError("decay must be in (0, 1]")
        if recovery < 1.0:
            raise ValueError("recovery must be at least 1")
        if not (0.0 < min_probability <= 1.0):
            raise ValueError("min_probability must be in (0, 1]")
        self.params = params
        self.constants = constants
        self.decay = decay
        self.recovery = recovery
        self.min_probability = min_probability

    def schedule(
        self,
        links: Sequence[Link] | LinkSet,
        power: PowerAssignment,
        rng: np.random.Generator,
        *,
        max_frames: int | None = None,
    ) -> DistributedScheduleResult:
        """Run the contention process until every link has adopted a slot.

        Args:
            links: the links to schedule.
            power: oblivious (or explicit) power assignment used by the links.
            rng: source of the call's seed word.
            max_frames: frame budget; defaults to ``200 * max(8, len(links))``.

        Raises:
            ConvergenceError: if some link remains unscheduled after the budget.
        """
        link_list = list(links)
        if not link_list:
            return DistributedScheduleResult(Schedule(), 0, 0, power)
        if max_frames is None:
            max_frames = 200 * max(8, len(link_list))

        base = self.constants.scheduling_base_probability
        seed = seed_word(rng)
        senders, receivers = np.array([link.endpoint_ids for link in link_list], dtype=np.int64).T
        attempt_keys = _hash_u64(_ATTEMPT_STREAM, seed, senders, receivers)
        tie_keys = _hash_u64(_TIE_STREAM, seed, senders, receivers)
        probability = np.full(len(link_list), base)
        waiting = np.ones(len(link_list), dtype=bool)
        # The frame simulation runs on a fixed node universe (the link
        # endpoints), so one NetworkState owns the node-to-node geometry and
        # every frame is resolved on index arrays against it (no
        # Transmission/Reception marshalling).
        channel = CachedChannel(self.params, state=NetworkState.for_links(link_list))
        cache = channel.cache
        sender_idx = np.array([cache.index_of_id(i) for i in senders.tolist()], dtype=np.intp)
        receiver_idx = np.array([cache.index_of_id(i) for i in receivers.tolist()], dtype=np.intp)
        power_arr = np.array([power.power(link) for link in link_list], dtype=float)
        ensure_positive_powers(power_arr)
        schedule = Schedule()
        frames = 0

        while waiting.any() and frames < max_frames:
            frames += 1
            # A link attempts when its coin is heads; a radio sends one
            # message per slot, so each sender keeps its smallest tie hash.
            frame = np.uint64(frames)
            heads = waiting & (_uniform_open(_mix(attempt_keys ^ frame)) < probability)
            attempts = heads.nonzero()[0]
            if not attempts.size:
                continue
            ties = _mix(tie_keys[attempts] ^ frame)
            attempts = attempts[np.lexsort((ties, senders[attempts]))]
            by_sender = senders[attempts]
            attempts = np.sort(attempts[np.append(True, by_sender[1:] != by_sender[:-1])])
            # Frames are slot pairs: data at 2*(frame-1), ack right after
            # (slot-dependent gain models draw fresh fades per physical slot).
            first_slot = 2 * (frames - 1)
            won = self._run_frame_indices(
                attempts, channel, sender_idx, receiver_idx, power_arr, first_slot
            )
            for index in attempts[won].tolist():
                schedule.assign(link_list[index], frames - 1)
            waiting[attempts[won]] = False
            failed = attempts[~won]
            probability[failed] = np.maximum(self.min_probability, probability[failed] * self.decay)
            idle = waiting.copy()
            idle[attempts] = False
            probability[idle] = np.minimum(base, probability[idle] * self.recovery)

        remaining = int(np.count_nonzero(waiting))
        if remaining > 0:
            raise ConvergenceError(
                f"{remaining} of {len(link_list)} links unscheduled after {max_frames} frames"
            )
        return DistributedScheduleResult(
            schedule=schedule,
            frames_elapsed=frames,
            slots_elapsed=2 * frames,
            power=power,
        )

    # -- internals ----------------------------------------------------------

    def _run_frame_indices(
        self,
        attempts: np.ndarray,
        channel: CachedChannel,
        sender_idx: np.ndarray,
        receiver_idx: np.ndarray,
        power_arr: np.ndarray,
        first_slot: int = 0,
    ) -> np.ndarray:
        """Run the data + acknowledgment slots; per attempt, whether it fully succeeded.

        Both slots are resolved through
        :meth:`~repro.sinr.channel.CachedChannel.resolve_indices`; a link
        succeeds when its receiver decoded *its own* sender (``best`` equals
        the link's row) in the data slot and, symmetrically, its sender
        decoded the receiver's acknowledgment.  Half-duplex is applied
        exactly as ``Channel.resolve`` does: a listener that is also
        transmitting in the slot hears nothing.
        """
        tx = sender_idx[attempts]
        rx = receiver_idx[attempts]
        pw = power_arr[attempts]
        won = np.zeros(attempts.size, dtype=bool)

        # Data slot: all attempt senders transmit; receivers that are
        # themselves transmitting are busy and cannot listen.
        listening = np.nonzero(~np.isin(rx, tx))[0]
        best, _, ok = channel.resolve_indices(tx, rx[listening], pw, slot=first_slot)
        data_ok = listening[ok & (best == listening)]
        if data_ok.size == 0:
            return won

        # Acknowledgment slot: the receivers of successful data answer on the
        # dual link with the same power; the original senders listen (unless
        # they are busy acknowledging another link themselves).  Successful
        # receivers are distinct (each decoded exactly one sender), so the
        # ack transmitters are automatically unique.
        ack_tx = rx[data_ok]
        ack_rx = tx[data_ok]
        ack_listening = np.nonzero(~np.isin(ack_rx, ack_tx))[0]
        ack_best, _, ack_ok = channel.resolve_indices(
            ack_tx, ack_rx[ack_listening], pw[data_ok], slot=first_slot + 1
        )
        won[data_ok[ack_listening[ack_ok & (ack_best == ack_listening)]]] = True
        return won
